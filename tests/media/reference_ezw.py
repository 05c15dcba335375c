"""Reference EZW coder: the executable specification of ``repro.media.ezw``.

This is the per-coefficient coder that shipped before the level-vectorised
kernels, kept verbatim (one Python iteration per coefficient per
bit-plane, one ``write_bit``/``read_bit`` per bit).  ``test_ezw_reference.py``
pins the shipped coder to it bit for bit: equal streams from the encoder,
equal reconstructions from the decoder at every truncation and on
arbitrary (non-encoder) payloads.  Change the stream format here first.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.media.ezw import EzwEncoded

from .bitstream import BitReader, BitWriter, OutOfBits

__all__ = ["ezw_encode", "ezw_decode"]


# ----------------------------------------------------------------------
# tree structure (cached per geometry)
# ----------------------------------------------------------------------
@lru_cache(maxsize=32)
def _structure(h: int, w: int, levels: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Scan order, children lists and child counts for an (h, w) pyramid.

    Returns ``(scan, children, n_children)`` where ``scan`` is a flat-index
    array in coarse→fine order, ``children[f]`` is a tuple of flat child
    indices and ``n_children[f]`` their count.
    """
    return _structure_impl(h, w, levels)


@lru_cache(maxsize=32)
def _descendants(h: int, w: int, levels: int) -> tuple:
    """Per-node arrays of *all* strict descendants (for ZTR skip-marking).

    Built bottom-up so each node's array is its children plus their
    descendant arrays; total storage is O(n · levels).  Marking a whole
    zerotree then costs one vectorized fancy-index assignment instead of
    a Python stack walk (the profiler's top hot spot).
    """
    scan, children, _ = _structure(h, w, levels)
    desc: list = [None] * (h * w)
    empty = np.empty(0, dtype=np.int64)
    for f in scan[::-1]:  # fine → coarse: children before parents
        kids = children[f]
        if not kids:
            desc[f] = empty
        else:
            parts = [np.asarray(kids, dtype=np.int64)]
            parts.extend(desc[k] for k in kids)
            desc[f] = np.concatenate(parts)
    return tuple(desc)


def _structure_impl(h: int, w: int, levels: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    def flat(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return i * w + j

    scan_parts: list[np.ndarray] = []
    h0, w0 = h >> levels, w >> levels
    ii, jj = np.mgrid[0:h0, 0:w0]
    scan_parts.append(flat(ii, jj).ravel())
    for k in range(levels, 0, -1):  # coarsest detail level first
        hk, wk = h >> k, w >> k
        ii, jj = np.mgrid[0:hk, 0:wk]
        scan_parts.append(flat(ii, jj + wk).ravel())       # HL
        scan_parts.append(flat(ii + hk, jj).ravel())       # LH
        scan_parts.append(flat(ii + hk, jj + wk).ravel())  # HH
    scan = np.concatenate(scan_parts)

    children: list[tuple[int, ...]] = [() for _ in range(h * w)]
    # LL parents: three same-scale detail children each
    for i in range(h0):
        for j in range(w0):
            children[i * w + j] = (
                i * w + (j + w0),
                (i + h0) * w + j,
                (i + h0) * w + (j + w0),
            )
    # detail bands above the finest: 2x2 child blocks one level finer
    for k in range(levels, 1, -1):
        hk, wk = h >> k, w >> k
        for name_i, name_j in ((0, wk), (hk, 0), (hk, wk)):  # HL, LH, HH origins
            for i in range(hk):
                for j in range(wk):
                    pi, pj = name_i + i, name_j + j
                    ci, cj = 2 * pi, 2 * pj
                    children[pi * w + pj] = (
                        ci * w + cj,
                        ci * w + cj + 1,
                        (ci + 1) * w + cj,
                        (ci + 1) * w + cj + 1,
                    )
    n_children = np.array([len(c) for c in children], dtype=np.int64)
    return scan, tuple(children), n_children


def _descendant_max(coeffs_abs: np.ndarray, scan: np.ndarray, children: tuple) -> np.ndarray:
    """Max |coefficient| over all strict descendants of each node."""
    flat = coeffs_abs.ravel()
    D = np.zeros_like(flat)
    for f in scan[::-1]:  # fine → coarse: children before parents
        kids = children[f]
        if kids:
            D[f] = max(max(flat[c], D[c]) for c in kids)
    return D


# ----------------------------------------------------------------------
# encoder
# ----------------------------------------------------------------------
def ezw_encode(
    coeffs: np.ndarray, levels: int, max_bits: int | None = None, min_threshold: float = 0.5
) -> EzwEncoded:
    """Encode a wavelet-coefficient array into an embedded bitstream.

    ``max_bits`` stops the encoder early (rate control); ``min_threshold``
    bounds the deepest refinement (0.5 ≈ lossless for integer inputs under
    the orthonormal Haar up to rounding).
    """
    c = np.asarray(coeffs, dtype=float)
    h, w = c.shape
    scan, children, _ = _structure(h, w, levels)
    flat = c.ravel()
    mags = np.abs(flat)
    cmax = float(mags.max())
    if cmax == 0.0:
        return EzwEncoded((h, w), levels, 0, b"", 0)
    t0_exp = int(np.floor(np.log2(cmax)))
    T = 2.0 ** t0_exp
    D = _descendant_max(mags, scan, children)

    writer = BitWriter()
    significant = np.zeros(flat.shape[0], dtype=bool)
    sub_order: list[int] = []        # flat indices, in significance order
    low = np.zeros(flat.shape[0])    # current interval low per significant coeff
    width = np.zeros(flat.shape[0])
    skip_pass = np.zeros(flat.shape[0], dtype=bool)
    budget = max_bits if max_bits is not None else float("inf")

    def over_budget() -> bool:
        return writer.bits_written >= budget

    descendants = _descendants(coeffs.shape[0], coeffs.shape[1], levels)
    write_bit = writer.write_bit
    write_bits = writer.write_bits
    while T >= min_threshold and not over_budget():
        # ---- dominant pass --------------------------------------------
        skip_pass[:] = False
        for f in scan:
            if writer.bits_written >= budget:
                break
            if skip_pass[f] or significant[f]:
                continue
            mag = mags[f]
            if mag >= T:
                write_bits(0b110 if flat[f] >= 0 else 0b111, 3)
                significant[f] = True
                sub_order.append(f)
                low[f] = T
                width[f] = T
            else:
                if D[f] < T:           # zerotree root (or leaf zero)
                    write_bit(0)
                    skip_pass[descendants[f]] = True
                else:                  # isolated zero
                    write_bits(0b10, 2)
        # ---- subordinate pass -----------------------------------------
        for f in sub_order:
            if over_budget():
                break
            half = width[f] / 2.0
            if mags[f] >= low[f] + half:
                writer.write_bit(1)
                low[f] += half
            else:
                writer.write_bit(0)
            width[f] = half
        T /= 2.0

    payload = writer.getvalue()
    return EzwEncoded((h, w), levels, t0_exp, payload, writer.bits_written)


# ----------------------------------------------------------------------
# decoder
# ----------------------------------------------------------------------
def ezw_decode(encoded: EzwEncoded, min_threshold: float = 0.5) -> np.ndarray:
    """Decode (a possibly truncated) EZW stream back to coefficients.

    Runs the same scan as the encoder, reconstructing each significant
    coefficient at the midpoint of its current uncertainty interval.
    Exhausting the stream mid-pass simply stops refinement.
    """
    h, w = encoded.shape
    scan, children, _ = _structure(h, w, encoded.levels)
    n = h * w
    recon = np.zeros(n)
    if encoded.payload_bits == 0:
        return recon.reshape(h, w)
    reader = BitReader(encoded.payload, bit_limit=encoded.payload_bits)
    significant = np.zeros(n, dtype=bool)
    sign = np.zeros(n)
    low = np.zeros(n)
    width = np.zeros(n)
    sub_order: list[int] = []
    skip_pass = np.zeros(n, dtype=bool)
    T = 2.0 ** encoded.t0_exp

    descendants = _descendants(h, w, encoded.levels)
    try:
        while T >= min_threshold:
            skip_pass[:] = False
            for f in scan:
                if skip_pass[f] or significant[f]:
                    continue
                b0 = reader.read_bit()
                if b0 == 0:            # ZTR / Z
                    skip_pass[descendants[f]] = True
                    continue
                b1 = reader.read_bit()
                if b1 == 0:            # IZ
                    continue
                b2 = reader.read_bit()  # POS / NEG
                significant[f] = True
                sign[f] = 1.0 if b2 == 0 else -1.0
                low[f] = T
                width[f] = T
                sub_order.append(f)
            for f in sub_order:
                half = width[f] / 2.0
                if reader.read_bit():
                    low[f] += half
                width[f] = half
            T /= 2.0
    except OutOfBits:
        pass

    mask = significant
    recon[mask] = sign[mask] * (low[mask] + width[mask] / 2.0)
    return recon.reshape(h, w)
