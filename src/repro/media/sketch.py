"""Sketch extraction: the "base image" modality tier.

"The module uses robust segmentation of the image to extract a realistic
sketch of the main features.  This sketch preserves the essential
information required for effective collaboration, and requires up to 2000
times lesser data than the original" (paper Sec. 5.4).

Pipeline: Sobel gradient magnitude → percentile threshold → optional
block-max downsampling → 1-bit run-length coding.  On the synthetic
collaboration scene at 256×256 RGB this lands in the paper's ~2000×
reduction regime (see ``tests/media/test_sketch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .progressive import MAX_RECEIVED_PIXELS

__all__ = ["sobel_magnitude", "extract_sketch", "decode_sketch", "Sketch", "SketchError"]


class SketchError(ValueError):
    """Raised on invalid sketch parameters or corrupt encodings."""


def sobel_magnitude(image: np.ndarray) -> np.ndarray:
    """Gradient magnitude via 3×3 Sobel kernels (vectorized, edge-padded)."""
    g = np.asarray(image, dtype=float)
    if g.ndim == 3:
        g = g.mean(axis=-1)
    if g.ndim != 2:
        raise SketchError(f"expected 2-D or 3-D image, got ndim={g.ndim}")
    p = np.pad(g, 1, mode="edge")
    # Sobel responses written as shifted-view sums: no Python loops.
    gx = (
        (p[:-2, 2:] + 2 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2 * p[1:-1, :-2] + p[2:, :-2])
    )
    gy = (
        (p[2:, :-2] + 2 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2 * p[:-2, 1:-1] + p[:-2, 2:])
    )
    return np.hypot(gx, gy)


@dataclass(frozen=True)
class Sketch:
    """A 1-bit feature sketch plus its compact wire encoding."""

    shape: tuple[int, int]          # sketch resolution (possibly downsampled)
    source_shape: tuple[int, ...]   # original image shape
    mask: np.ndarray                # bool (h, w)
    encoded: bytes                  # RLE wire form

    @property
    def n_bytes(self) -> int:
        """Wire size of the sketch."""
        return len(self.encoded)

    def reduction_factor(self, bits_per_sample: int = 8) -> float:
        """Raw image bytes / sketch bytes — the paper's "2000 times"."""
        raw = int(np.prod(self.source_shape)) * bits_per_sample // 8
        return raw / max(self.n_bytes, 1)

    def to_image(self) -> np.ndarray:
        """Render the sketch as uint8 (features white on black)."""
        return (self.mask.astype(np.uint8)) * 255


def _rle_encode(bits: np.ndarray) -> bytes:
    """Run-length encode a flat boolean array, runs as varint counts.

    Stream starts with the first bit value, then alternating run lengths
    in LEB128 varints.
    """
    flat = np.asarray(bits, dtype=bool).ravel()
    out = bytearray([1 if flat[0] else 0])
    changes = np.flatnonzero(np.diff(flat.view(np.int8)))
    edges = np.concatenate([[-1], changes, [flat.size - 1]])
    runs = np.diff(edges)
    for run in runs:
        v = int(run)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


def _rle_decode(data: bytes, size: int) -> np.ndarray:
    """Inverse of :func:`_rle_encode`."""
    if not data:
        raise SketchError("empty RLE stream")
    bit = bool(data[0])
    out = np.empty(size, dtype=bool)
    pos_out = 0
    pos = 1
    while pos_out < size:
        if pos >= len(data):
            raise SketchError("truncated RLE stream")
        run = 0
        shift = 0
        while True:
            if pos >= len(data):
                raise SketchError("truncated RLE varint")
            b = data[pos]
            pos += 1
            run |= (b & 0x7F) << shift
            shift += 7
            if not (b & 0x80):
                break
        if pos_out + run > size:
            raise SketchError("RLE overruns declared size")
        out[pos_out : pos_out + run] = bit
        pos_out += run
        bit = not bit
    return out


def _bitpack_encode(bits: np.ndarray) -> bytes:
    """Fixed-size 1-bit packing fallback when RLE does not pay off."""
    return bytes(np.packbits(np.asarray(bits, dtype=bool).ravel()))


def _bitpack_decode(data: bytes, size: int) -> np.ndarray:
    if len(data) != (size + 7) // 8:
        raise SketchError(f"bit-packed sketch of {len(data)} bytes, {size} bits declared")
    out = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=size)
    return out.astype(bool)


def extract_sketch(
    image: np.ndarray,
    edge_percentile: float = 94.0,
    downsample: int | None = None,
) -> Sketch:
    """Extract the main-feature sketch of ``image``.

    Parameters
    ----------
    edge_percentile:
        Gradient-magnitude percentile above which a pixel is a feature.
    downsample:
        Block size for block-mean downsampling the image *before* edge
        detection (coarser sketch, smaller encoding).  1 disables
        downsampling.  ``None`` (default) adapts so the sketch lands near
        32×32 — a fixed tiny footprint that yields the paper's "up to
        2000×" reduction on large images.
    """
    if not (50.0 <= edge_percentile < 100.0):
        raise SketchError("edge_percentile must be in [50, 100)")
    img = np.asarray(image)
    if downsample is None:
        downsample = max(1, min(img.shape[0], img.shape[1]) // 32)
    if downsample < 1:
        raise SketchError("downsample must be >= 1")
    gray = np.asarray(img, dtype=float)
    if gray.ndim == 3:
        gray = gray.mean(axis=-1)
    if downsample > 1:
        h, w = gray.shape
        h2, w2 = h // downsample, w // downsample
        if h2 < 4 or w2 < 4:
            raise SketchError("downsample too large for image")
        gray = gray[: h2 * downsample, : w2 * downsample].reshape(
            h2, downsample, w2, downsample
        ).mean(axis=(1, 3))
    mag = sobel_magnitude(gray)
    threshold = np.percentile(mag, edge_percentile)
    mask = mag > threshold
    # choose the cheaper of run-length and fixed bit-packing; one format byte
    rle = _rle_encode(mask)
    packed = _bitpack_encode(mask)
    if len(rle) <= len(packed):
        encoded = b"R" + rle
    else:
        encoded = b"P" + packed
    return Sketch(
        shape=mask.shape, source_shape=img.shape, mask=mask, encoded=encoded
    )


def decode_sketch(encoded: bytes, shape: tuple[int, int]) -> np.ndarray:
    """Rebuild a sketch's mask from its wire encoding.

    ``shape`` comes off the wire beside the bytes (a peer's
    ``SketchShareEvent``): an area outside 1..``MAX_RECEIVED_PIXELS`` is
    refused before anything is allocated.
    """
    h, w = shape
    if h < 1 or w < 1 or h * w > MAX_RECEIVED_PIXELS:
        raise SketchError(f"a {h}x{w} sketch is outside 1..{MAX_RECEIVED_PIXELS} pixels")
    if not encoded:
        raise SketchError("empty sketch encoding")
    fmt, body = encoded[:1], encoded[1:]
    if fmt == b"R":
        return _rle_decode(body, h * w).reshape(shape)
    if fmt == b"P":
        return _bitpack_decode(body, h * w).reshape(shape)
    raise SketchError(f"unknown sketch format {fmt!r}")
