"""Synthetic test images (no PIL / image files offline).

The paper shares photographic images through the image viewer; offline we
generate deterministic synthetic scenes with comparable structure —
smooth backgrounds, strong edges, textured regions — so the wavelet coder
and the sketch extractor see realistic statistics.  All generators return
``uint8`` arrays, grayscale ``(h, w)`` or RGB ``(h, w, 3)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "collaboration_scene",
    "to_rgb",
    "ImageError",
]


class ImageError(ValueError):
    """Raised on invalid image parameters."""


def _validate(h: int, w: int) -> None:
    if h < 8 or w < 8:
        raise ImageError(f"image too small: {h}x{w}")


def collaboration_scene(h: int = 128, w: int = 128, seed: int = 7) -> np.ndarray:
    """A structured 'shared document' scene: background ramp, a bright
    disk, a dark rectangle, a cross, plus faint sensor noise.

    This is the default payload of the image-viewer experiments: it has
    sharp object boundaries (so the sketch extractor finds features) and
    smooth interiors (so progressive refinement is visible).
    """
    _validate(h, w)
    rng = np.random.default_rng(seed)
    ii, jj = np.mgrid[0:h, 0:w]
    img = 60.0 + 60.0 * (ii + jj) / (h + w)

    # bright disk upper-left-ish
    ci, cj, r = h * 0.30, w * 0.30, min(h, w) * 0.18
    disk = ((ii - ci) ** 2 + (jj - cj) ** 2) <= r * r
    img[disk] = 220.0

    # dark rectangle lower-right
    r0, r1 = int(h * 0.55), int(h * 0.85)
    c0, c1 = int(w * 0.55), int(w * 0.9)
    img[r0:r1, c0:c1] = 30.0

    # cross through the centre
    cw = max(1, min(h, w) // 32)
    img[h // 2 - cw : h // 2 + cw, :] = 160.0
    img[:, w // 2 - cw : w // 2 + cw] = 160.0

    img += rng.normal(0.0, 2.0, img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


#: per-channel (R, G, B) gain :func:`to_rgb` applies to a grayscale image
TINT = (1.0, 0.85, 0.6)


def to_rgb(gray: np.ndarray) -> np.ndarray:
    """Colorize a grayscale image with the per-channel :data:`TINT` (RGB uint8).

    Adds channel-dependent structure so color coding is non-trivial.
    """
    g = np.asarray(gray, dtype=float)
    if g.ndim != 2:
        raise ImageError("to_rgb expects a 2-D grayscale image")
    channels = [np.clip(g * t, 0, 255) for t in TINT]
    # add a gentle opposing ramp in the blue channel for decorrelation
    ii, jj = np.mgrid[0 : g.shape[0], 0 : g.shape[1]]
    channels[2] = np.clip(channels[2] + 30.0 * jj / max(g.shape[1] - 1, 1), 0, 255)
    return np.stack(channels, axis=-1).astype(np.uint8)
