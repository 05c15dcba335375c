"""Image quality and rate metrics used throughout the evaluation.

The paper reports three quantities for the image viewer (Figs. 6–7):

* **number of packets** accepted (1..16, powers of two);
* **BPP** — bits per pixel actually used, ``bits / (h*w)`` (for color
  images the channel bits all count against the same pixel budget, which
  is how the paper's 14.3-BPP color numbers arise);
* **compression ratio** — raw bits over coded bits, with raw =
  :data:`BITS_PER_SAMPLE` (8) bits per channel per pixel.

PSNR supplements these as the standard distortion measure.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "psnr", "bpp", "compression_ratio", "raw_bits", "BITS_PER_SAMPLE"]

#: bits per channel sample of an uncompressed image (PSNR's peak is 255)
BITS_PER_SAMPLE = 8


def mse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error between two images of identical shape."""
    a = np.asarray(original, dtype=float)
    b = np.asarray(reconstructed, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical images)."""
    m = mse(original, reconstructed)
    if m == 0.0:
        return float("inf")
    peak = 2.0**BITS_PER_SAMPLE - 1
    return 10.0 * np.log10(peak * peak / m)


def raw_bits(shape: tuple[int, ...]) -> int:
    """Uncompressed size in bits of an image of ``shape``."""
    n = 1
    for s in shape:
        n *= int(s)
    return n * BITS_PER_SAMPLE


def bpp(bits_used: int, shape: tuple[int, ...]) -> float:
    """Bits per *pixel*: channel bits share the pixel denominator."""
    h, w = shape[0], shape[1]
    if h <= 0 or w <= 0:
        raise ValueError(f"bad shape {shape}")
    return bits_used / (h * w)


def compression_ratio(bits_used: int, shape: tuple[int, ...]) -> float:
    """Raw bits over coded bits (``inf`` when nothing was coded)."""
    if bits_used <= 0:
        return float("inf")
    return raw_bits(shape) / bits_used
