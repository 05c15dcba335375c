"""Tests for the information-transformer modules (paper Sec. 5.4).

The modules are plain functions, called in the shapes the framework uses
them: the client and base station describe and sketch a shared image,
and a speech-only consumer gets the description synthesised.
"""

from repro.media.describe import describe_image
from repro.media.images import collaboration_scene
from repro.media.sketch import Sketch, extract_sketch
from repro.media.speech import SpeechClip, speech_to_text, text_to_speech


class TestApply:
    def test_image_to_sketch(self):
        out = extract_sketch(collaboration_scene(64, 64))
        assert isinstance(out, Sketch)

    def test_image_to_text(self):
        out = describe_image(collaboration_scene(64, 64)).text
        assert isinstance(out, str) and "64x64" in out

    def test_image_to_speech_chain(self):
        text = describe_image(collaboration_scene(64, 64)).text
        out = text_to_speech(text)
        assert isinstance(out, SpeechClip)
        assert out.duration > 0
        assert speech_to_text(out).startswith("a 64x64 grayscale image")
