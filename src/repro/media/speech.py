"""Synthetic speech: text→speech and speech→text transformers.

Real TTS engines are unavailable offline, so we implement a *frequency-
keyed* synthetic voice: each character maps to a distinct sine-tone frame.
This preserves everything the framework cares about — a speech rendition
whose size scales with text length, that round-trips back to text (our
"speech recognition" decodes the tones via FFT), and whose bandwidth cost
the QoS policies can reason about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpeechClip",
    "text_to_speech",
    "speech_to_text",
    "SpeechError",
    "quantize_u8",
]

#: Samples per second of the synthetic voice.
SAMPLE_RATE = 8000
#: Samples per character frame.
FRAME = 160  # 20 ms
#: Base frequency (Hz) and per-symbol spacing.  With 160-sample frames at
#: 8 kHz the FFT bin width is 50 Hz, so symbols sit exactly on bins.
F0 = 400.0
F_STEP = 50.0

_ALPHABET = " abcdefghijklmnopqrstuvwxyz0123456789.,;:!?'\"()-%/"
_CHAR_TO_IDX = {c: i for i, c in enumerate(_ALPHABET)}


class SpeechError(ValueError):
    """Raised on unsynthesizable input or undecodable audio."""


@dataclass(frozen=True)
class SpeechClip:
    """A synthetic speech waveform with provenance metadata."""

    samples: np.ndarray          # float32 in [-1, 1]
    sample_rate: int
    text_length: int

    @property
    def duration(self) -> float:
        """Clip length in seconds."""
        return len(self.samples) / self.sample_rate


def _char_freq(idx: int) -> float:
    return F0 + F_STEP * idx


def text_to_speech(text: str) -> SpeechClip:
    """Render ``text`` as a frequency-keyed waveform.

    Unknown characters are mapped to space (lossy, like any TTS front
    end normalising its input).
    """
    if not text:
        raise SpeechError("cannot synthesize empty text")
    norm = text.lower()
    t = np.arange(FRAME) / SAMPLE_RATE
    window = np.hanning(FRAME)
    frames = []
    for ch in norm:
        idx = _CHAR_TO_IDX.get(ch, 0)
        frames.append(np.sin(2 * np.pi * _char_freq(idx) * t) * window)
    samples = np.concatenate(frames).astype(np.float32)
    return SpeechClip(samples=samples, sample_rate=SAMPLE_RATE, text_length=len(norm))


def quantize_u8(clip: SpeechClip) -> bytes:
    """8-bit wire form of a clip ([-1, 1] → 0..255), for SpeechShareEvent."""
    q = np.clip((clip.samples + 1.0) * 127.5, 0, 255).astype(np.uint8)
    return q.tobytes()


def speech_to_text(clip: SpeechClip) -> str:
    """Decode a frequency-keyed clip back to text (per-frame FFT peak)."""
    n = len(clip.samples)
    if n == 0 or n % FRAME:
        raise SpeechError(f"clip length {n} is not a whole number of frames")
    frames = clip.samples.reshape(-1, FRAME)
    spectrum = np.abs(np.fft.rfft(frames, axis=1))
    freqs = np.fft.rfftfreq(FRAME, d=1.0 / clip.sample_rate)
    peak_freqs = freqs[np.argmax(spectrum, axis=1)]
    indices = np.clip(
        np.round((peak_freqs - F0) / F_STEP).astype(int), 0, len(_ALPHABET) - 1
    )
    return "".join(_ALPHABET[i] for i in indices)
