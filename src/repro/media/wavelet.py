"""2-D Haar discrete wavelet transform (vectorized numpy).

The paper's image transformation module hierarchically refines a sketch
with detail, citing Shapiro's embedded zerotree wavelet coder ([23]).  We
implement the transform the EZW coder runs on: a separable, orthonormal
Haar DWT with the standard pyramid layout (approximation in the top-left
quadrant, detail subbands around it, recursively).

Layout for ``levels = 2`` on an 8×8 image::

    LL2 HL2 | HL1
    LH2 HH2 |
    --------+----
      LH1   | HH1

All operations are pure-numpy slices (views where possible, per the HPC
guide); image sides must be divisible by ``2**levels``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "haar_dwt2",
    "haar_idwt2",
    "max_levels",
    "WaveletError",
]

_SQRT2 = np.sqrt(2.0)


class WaveletError(ValueError):
    """Raised for shapes incompatible with the requested decomposition."""


def max_levels(shape: tuple[int, int]) -> int:
    """The deepest decomposition both sides of ``shape`` support."""
    h, w = shape
    levels = 0
    while h % 2 == 0 and w % 2 == 0 and h >= 2 and w >= 2:
        h //= 2
        w //= 2
        levels += 1
    return levels


def _check(shape: tuple[int, int], levels: int) -> None:
    if levels < 1:
        raise WaveletError(f"levels must be >= 1, got {levels}")
    h, w = shape
    div = 1 << levels
    if h % div or w % div:
        raise WaveletError(f"shape {shape} not divisible by 2**{levels}")


def _dwt_rows(a: np.ndarray) -> np.ndarray:
    """One Haar analysis step along the last axis (orthonormal)."""
    even = a[..., 0::2]
    odd = a[..., 1::2]
    return np.concatenate(
        [(even + odd) / _SQRT2, (even - odd) / _SQRT2], axis=-1
    )


def _idwt_rows(a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_dwt_rows`."""
    half = a.shape[-1] // 2
    s = a[..., :half]
    d = a[..., half:]
    out = np.empty_like(a)
    out[..., 0::2] = (s + d) / _SQRT2
    out[..., 1::2] = (s - d) / _SQRT2
    return out


def haar_dwt2(image: np.ndarray, levels: int) -> np.ndarray:
    """Forward 2-D Haar DWT, pyramid layout, ``levels`` deep.

    >>> x = np.arange(16.0).reshape(4, 4)
    >>> np.allclose(haar_idwt2(haar_dwt2(x, 2), 2), x)
    True
    """
    a = np.asarray(image, dtype=float)
    if a.ndim != 2:
        raise WaveletError(f"expected 2-D array, got ndim={a.ndim}")
    _check(a.shape, levels)
    out = a.copy()
    h, w = a.shape
    for _ in range(levels):
        block = out[:h, :w]
        block = _dwt_rows(block)            # rows
        block = _dwt_rows(block.swapaxes(0, 1)).swapaxes(0, 1)  # cols
        out[:h, :w] = block
        h //= 2
        w //= 2
    return out


def haar_idwt2(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Inverse 2-D Haar DWT for :func:`haar_dwt2` output."""
    a = np.asarray(coeffs, dtype=float)
    if a.ndim != 2:
        raise WaveletError(f"expected 2-D array, got ndim={a.ndim}")
    _check(a.shape, levels)
    out = a.copy()
    H, W = a.shape
    sizes = [(H >> k, W >> k) for k in range(levels)]  # coarsest applied first
    for h, w in reversed(sizes):
        block = out[:h, :w]
        block = _idwt_rows(block.swapaxes(0, 1)).swapaxes(0, 1)  # cols
        block = _idwt_rows(block)                                 # rows
        out[:h, :w] = block
    return out
