"""Decoder for the speech downlink: the inverse of
``repro.media.speech.quantize_u8``.

The base station sends a speech-preferring client a ``SpeechShareEvent``
holding 8-bit samples; no runtime component plays them back, so the
decoder lives here as the oracle the downlink tests read the event with
(``speech_to_text`` then recognises the clip).
"""

from __future__ import annotations

import numpy as np

from repro.media.speech import FRAME, SAMPLE_RATE, SpeechClip

__all__ = ["dequantize_u8"]


def dequantize_u8(data: bytes, sample_rate: int = SAMPLE_RATE) -> SpeechClip:
    """Inverse of :func:`quantize_u8` (text_length unknown → frame count)."""
    samples = np.frombuffer(data, dtype=np.uint8).astype(np.float32) / 127.5 - 1.0
    return SpeechClip(
        samples=samples, sample_rate=sample_rate, text_length=len(samples) // FRAME
    )
