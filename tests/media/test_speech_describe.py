"""Tests for synthetic speech and the verbal-description generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media.describe import describe_image
from repro.media.images import collaboration_scene, to_rgb
from repro.media.speech import (
    FRAME,
    SpeechClip,
    SpeechError,
    speech_to_text,
    text_to_speech,
)

printable = st.text(
    alphabet=" abcdefghijklmnopqrstuvwxyz0123456789.,;:!?'\"()-%/",
    min_size=1,
    max_size=60,
)


class TestSpeech:
    def test_roundtrip_simple(self):
        assert speech_to_text(text_to_speech("share image now")) == "share image now"

    @settings(max_examples=40)
    @given(printable)
    def test_roundtrip_property(self, text):
        assert speech_to_text(text_to_speech(text)) == text

    def test_case_normalised(self):
        assert speech_to_text(text_to_speech("Hello WORLD")) == "hello world"

    def test_unknown_chars_become_space(self):
        assert speech_to_text(text_to_speech("aéb")) == "a b"

    def test_duration_scales_with_length(self):
        short = text_to_speech("hi")
        long = text_to_speech("hi there friend")
        assert long.duration > short.duration
        assert short.duration == pytest.approx(2 * FRAME / short.sample_rate)

    def test_empty_text_rejected(self):
        with pytest.raises(SpeechError):
            text_to_speech("")

    def test_partial_frame_rejected(self):
        clip = SpeechClip(np.zeros(FRAME + 1, dtype=np.float32), 8000, 1)
        with pytest.raises(SpeechError):
            speech_to_text(clip)

    def test_amplitude_bounded(self):
        clip = text_to_speech("loudness test")
        assert np.abs(clip.samples).max() <= 1.0


class TestDescribe:
    def test_deterministic(self):
        img = collaboration_scene(64, 64)
        assert describe_image(img).text == describe_image(img).text

    def test_mentions_dimensions_and_kind(self):
        d = describe_image(collaboration_scene(64, 64))
        assert "64x64" in d.text
        assert "grayscale" in d.text
        d_rgb = describe_image(to_rgb(collaboration_scene(64, 64)))
        assert "color" in d_rgb.text

    def test_scene_has_regions(self):
        d = describe_image(collaboration_scene(128, 128))
        assert d.n_bright_regions + d.n_dark_regions >= 1
        assert "region" in d.text

    def test_uniform_image_reports_no_features(self):
        d = describe_image(np.full((32, 32), 128, dtype=np.uint8))
        assert d.n_bright_regions == 0
        assert "uniform" in d.text

    def test_blobs_counted(self):
        ii, jj = np.mgrid[0:128, 0:128]
        blobs = sum(
            200.0 * np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / 200.0)
            for ci, cj in ((30, 40), (90, 90), (60, 100))
        )
        d = describe_image(np.clip(blobs, 0, 255).astype(np.uint8))
        assert d.n_bright_regions >= 1

    def test_text_is_compact(self):
        d = describe_image(collaboration_scene(256, 256))
        assert len(d.text.encode()) < 1000  # orders smaller than the image

    def test_position_words_present(self):
        d = describe_image(collaboration_scene(128, 128))
        assert any(
            word in d.text
            for word in ("top-left", "centre", "bottom-right", "middle", "top", "bottom")
        )
