"""Reference image describer: ``repro.media.describe`` before region
sizes and centroids came from one ``np.bincount`` each, kept verbatim as
the oracle for ``tests/media/test_describe_reference.py``.

Original module docstring:

Verbal description of an image — the text modality tier.

"A verbal description can be tagged to this sketch and can be used to
enable clients with minimal capabilities (e.g., a client on a wireless
connection) to be effective participants" (paper Sec. 5.4).

The generator is rule-based and deterministic: it segments bright/dark
regions (``scipy.ndimage.label``), characterises their size and location,
and emits a short natural-language summary.  Determinism matters — the
same shared image must produce the same text at every client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["ImageDescription", "describe_image"]

_POSITIONS = {
    (0, 0): "top-left",
    (0, 1): "top-centre",
    (0, 2): "top-right",
    (1, 0): "middle-left",
    (1, 1): "centre",
    (1, 2): "middle-right",
    (2, 0): "bottom-left",
    (2, 1): "bottom-centre",
    (2, 2): "bottom-right",
}


@dataclass(frozen=True)
class ImageDescription:
    """Structured description plus its rendered text."""

    shape: tuple[int, ...]
    mean_brightness: float
    contrast: float
    n_bright_regions: int
    n_dark_regions: int
    region_summaries: tuple[str, ...]
    text: str

    @property
    def n_bytes(self) -> int:
        """Wire size of the textual description."""
        return len(self.text.encode("utf-8"))


def _position_name(centroid: tuple[float, float], shape: tuple[int, int]) -> str:
    row = min(2, int(3 * centroid[0] / shape[0]))
    col = min(2, int(3 * centroid[1] / shape[1]))
    return _POSITIONS[(row, col)]


def _region_summaries(
    mask: np.ndarray, kind: str, shape: tuple[int, int], max_regions: int, min_frac: float
) -> list[str]:
    labels, n = ndimage.label(mask)
    if n == 0:
        return []
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=range(1, n + 1))
    centroids = ndimage.center_of_mass(mask, labels, index=range(1, n + 1))
    order = np.argsort(sizes)[::-1]
    out = []
    total = mask.size
    for idx in order[:max_regions]:
        frac = sizes[idx] / total
        if frac < min_frac:
            break
        size_word = "large" if frac > 0.08 else "small"
        out.append(
            f"a {size_word} {kind} region in the {_position_name(centroids[idx], shape)}"
            f" (~{100 * frac:.0f}% of the frame)"
        )
    return out


def describe_image(image: np.ndarray, max_regions: int = 4) -> ImageDescription:
    """Produce the verbal description of ``image``.

    >>> from repro.media.images import collaboration_scene
    >>> d = describe_image(collaboration_scene(64, 64))
    >>> "64x64" in d.text and d.n_bright_regions >= 1
    True
    """
    img = np.asarray(image, dtype=float)
    gray = img.mean(axis=-1) if img.ndim == 3 else img
    h, w = gray.shape
    mean_b = float(gray.mean())
    contrast = float(gray.std())
    bright = gray > min(mean_b + contrast, 250.0)
    dark = gray < max(mean_b - contrast, 5.0)
    bright_s = _region_summaries(bright, "bright", (h, w), max_regions, min_frac=0.005)
    dark_s = _region_summaries(dark, "dark", (h, w), max_regions, min_frac=0.005)

    tone = (
        "dark" if mean_b < 80 else "bright" if mean_b > 175 else "mid-toned"
    )
    flatness = "high-contrast" if contrast > 60 else "low-contrast" if contrast < 20 else "moderate-contrast"
    kind = "color" if img.ndim == 3 else "grayscale"
    parts = [
        f"A {h}x{w} {kind} image, {tone} and {flatness}."
    ]
    features = bright_s + dark_s
    if features:
        parts.append("Main features: " + "; ".join(features) + ".")
    else:
        parts.append("No prominent regions; content is mostly uniform.")
    text = " ".join(parts)
    return ImageDescription(
        shape=img.shape,
        mean_brightness=mean_b,
        contrast=contrast,
        n_bright_regions=len(bright_s),
        n_dark_regions=len(dark_s),
        region_summaries=tuple(features),
        text=text,
    )
