"""Verbal description of an image — the text modality tier.

"A verbal description can be tagged to this sketch and can be used to
enable clients with minimal capabilities (e.g., a client on a wireless
connection) to be effective participants" (paper Sec. 5.4).

The generator is rule-based and deterministic: it segments bright/dark
regions (:func:`_label`, 4-connected, in numpy), characterises their size
and location, and emits a short natural-language summary.  Determinism
matters — the same shared image must produce the same text at every client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """The 4-connected regions of ``mask`` and their count, numbered as
    ``scipy.ndimage.label`` numbers them: in raster order of each region's
    first pixel (``_region_summaries`` breaks ties in size by that number).

    One difference of the flattened mask finds each row's runs of set
    pixels; ``searchsorted`` finds the runs of the row above that share a
    column with each run.  Touching runs hook the larger root onto the
    smaller, and pointer jumping follows each run to its root, until no
    touching pair has two roots; a region's root is then its first run in
    raster order.
    """
    h, w = mask.shape
    stride = w + 1  # pixel (r, c) sits at r * stride + c; a zero ends each row
    flat = np.zeros(h * stride + 1, dtype=np.int8)
    flat[1:].reshape(h, stride)[:, :w] = mask
    edges = flat[1:] - flat[:-1]
    start, stop = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    # the runs above run j are those ending after it starts and starting
    # before it stops: one slice [lo, hi) of the runs in raster order
    lo = np.searchsorted(stop, start - stride, side="right")
    count = np.maximum(np.searchsorted(start, stop - stride) - lo, 0)
    below = np.repeat(np.arange(len(start)), count)
    above = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(below))
    root = np.arange(len(start))
    while True:
        a, b = root[above], root[below]
        apart = a != b
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while not np.array_equal(parent := root[root], root):
            root = parent
    first = root == np.arange(len(start))
    number = np.cumsum(first, dtype=np.int32)[root]
    marks = np.zeros(h * stride, dtype=np.int32)
    marks[start], marks[stop] = number, -number
    return np.cumsum(marks, dtype=np.int32).reshape(h, stride)[:, :w], int(first.sum())


def _region_summaries(
    mask: np.ndarray, kind: str, shape: tuple[int, int], max_regions: int, min_frac: float
) -> list[str]:
    labels, n = _label(mask)
    if n == 0:
        return []
    # size and centroid of every region in one bincount each: the sums
    # are whole numbers, exact in float64, as the oracle's ndimage sums are; the
    # sizes stay float64 so that argsort orders equal sizes as it always has
    at = np.flatnonzero(labels)
    region = labels.ravel()[at]
    rows, cols = np.divmod(at, shape[1])
    sizes = np.bincount(region, minlength=n + 1)[1:].astype(float)
    centroids = np.stack(
        (np.bincount(region, rows, minlength=n + 1)[1:], np.bincount(region, cols, minlength=n + 1)[1:])
    ) / sizes
    order = np.argsort(sizes)[::-1]
    out = []
    total = mask.size
    for idx in order[:max_regions]:
        frac = sizes[idx] / total
        if frac < min_frac:
            break
        size_word = "large" if frac > 0.08 else "small"
        out.append(
            f"a {size_word} {kind} region in the {_position_name(centroids[:, idx], shape)}"
            f" (~{100 * frac:.0f}% of the frame)"
        )
    return out


#: bright and dark regions each that a description names at most
MAX_REGIONS = 4


def describe_image(image: np.ndarray) -> ImageDescription:
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
    bright_s = _region_summaries(bright, "bright", (h, w), MAX_REGIONS, min_frac=0.005)
    dark_s = _region_summaries(dark, "dark", (h, w), MAX_REGIONS, min_frac=0.005)

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
