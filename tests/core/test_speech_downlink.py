"""Tests for BS-side speech transformation (speech-preference clients)."""

import numpy as np
import pytest

from repro.core.framework import CollaborationFramework
from repro.core.policies import ModalityTier
from repro.media.images import collaboration_scene
from repro.media.speech import quantize_u8, speech_to_text, text_to_speech

from ..media.reference_speech import dequantize_u8


class TestQuantization:
    def test_u8_roundtrip_preserves_recognition(self):
        clip = text_to_speech("alert level four")
        wire = quantize_u8(clip)
        back = dequantize_u8(wire)
        assert speech_to_text(back) == "alert level four"

    def test_wire_size_one_byte_per_sample(self):
        clip = text_to_speech("abc")
        assert len(quantize_u8(clip)) == len(clip.samples)


@pytest.fixture
def cell():
    fw = CollaborationFramework("stest")
    wired = fw.add_wired_client("wired")
    bs = fw.add_base_station("bs")
    # geometry: w gets a degraded tier (text band) with an interferer near
    speechy = fw.add_wireless_client("speechy", bs, distance=75.0)
    fw.add_wireless_client("near", bs, distance=55.0)
    wired.join()
    fw.run_for(0.2)
    snap = bs.evaluate_qos()
    _, tier = snap.for_client("speechy")
    assert tier in (ModalityTier.TEXT_ONLY, ModalityTier.TEXT_AND_SKETCH)
    return fw, wired, bs, speechy


class TestSpeechDownlink:
    def test_text_preference_default(self, cell):
        fw, wired, bs, speechy = cell
        wired.share_image("img", collaboration_scene(64, 64))
        fw.run_for(3.0)
        counts = speechy.modality_counts()
        assert counts["text"] == 1
        assert not speechy.received_events or all(
            type(e).__name__ != "SpeechShareEvent" for _, e in speechy.received_events
        )

    def test_speech_preference_transforms_centrally(self, cell):
        fw, wired, bs, speechy = cell
        speechy.set_modality_preference("speech")
        fw.run_for(0.5)
        assert bs.attachments["speechy"].profile_attrs["modality"] == "speech"
        wired.share_image("img", collaboration_scene(64, 64))
        fw.run_for(4.0)
        counts = speechy.modality_counts()
        assert counts["text"] == 0
        assert len(speechy.received_events) > 0
        speech_events = [
            e for _, e in speechy.received_events if type(e).__name__ == "SpeechShareEvent"
        ]
        assert len(speech_events) == 1
        # the synthetic voice decodes back to the image's description
        clip = dequantize_u8(speech_events[0].samples_u8, speech_events[0].sample_rate)
        text = speech_to_text(clip)
        assert "64x64" in text

    def test_revert_to_text(self, cell):
        fw, wired, bs, speechy = cell
        speechy.set_modality_preference("speech")
        fw.run_for(0.5)
        speechy.set_modality_preference("text")
        fw.run_for(0.5)
        wired.share_image("img2", collaboration_scene(64, 64))
        fw.run_for(3.0)
        assert speechy.modality_counts()["text"] == 1


class TestWiredSpeechPreference:
    def test_wired_speech_client_synthesizes_locally(self):
        from repro.core.framework import CollaborationFramework
        from repro.media.speech import SpeechClip, speech_to_text

        fw = CollaborationFramework("wspeech")
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        b.profile.update(modality="speech")
        a.join()
        b.join()
        fw.run_for(0.3)
        a.share_image("img", collaboration_scene(64, 64))
        fw.run_for(2.0)
        entry = b.repository.get("speech/img")
        assert entry is not None
        assert isinstance(entry.value, SpeechClip)
        assert "64x64" in speech_to_text(entry.value)
