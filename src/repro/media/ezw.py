"""Embedded zerotree wavelet coder (Shapiro 1992, paper ref [23]).

The image viewer's progressive codec: wavelet coefficients are bit-plane
coded in significance order so that *any prefix* of the bitstream decodes
to a valid approximation — exactly the "image detail is hierarchically
added to the sketch" behaviour the paper's adaptation relies on.  The
inference engine then picks how many packets (prefix length) a client
accepts.

Algorithm sketch (per Shapiro):

* threshold schedule ``T_0 = 2**floor(log2 max|c|)``, halved each round;
* **dominant pass**: scan coefficients coarse→fine; newly significant ones
  emit POS/NEG, insignificant subtree roots emit ZTR (their descendants
  are skipped this pass), otherwise IZ;
* **subordinate pass**: one magnitude-refinement bit for every
  already-significant coefficient (successive interval halving).

Symbol prefix code: ``0``=ZTR/Z, ``10``=IZ, ``110``=POS, ``111``=NEG.
The decoder replays the same scan from the symbols alone, so encoder and
decoder stay in lock-step at any truncation point.

Both directions run as whole-array numpy passes (loops over bit-planes
and subband levels only).  Three facts make that exact, not approximate;
``tests/media/reference_ezw.py`` is the per-coefficient coder they are
pinned to, bit for bit:

* with ``M[f]`` the largest magnitude at ``f`` or below it, ``M`` never
  grows down the tree, so at threshold ``T`` the encoder visits ``f`` iff
  it is not yet significant and ``M[parent(f)] >= T``;
* the scan goes LL, level *L*, level *L-1*, …, so a node's parent always
  lies in the previous group and a group's coded nodes are known when it
  starts, whatever the bits were;
* the prefix code self-synchronises — every ``0`` ends a symbol and inside
  a run of ``1``s every third bit starts one — so symbol boundaries are
  found for the whole stream at once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

from .wavelet import haar_dwt2, haar_idwt2

__all__ = ["EzwEncoded", "ezw_encode", "ezw_decode", "encode_image", "decode_image"]

IntArray = npt.NDArray[np.intp]
BoolArray = npt.NDArray[np.bool_]
BitArray = npt.NDArray[np.uint8]
FloatArray = npt.NDArray[np.float64]

#: symbol kinds, as the decoder numbers them (POS and NEG are ``>= 2``)
_ZTR, _NEG = 0, 3
#: The last threshold coded: 0.5 is near lossless for integer inputs under
#: the orthonormal Haar, up to rounding.  Encoder and decoder both stop here.
MIN_THRESHOLD = 0.5


# ----------------------------------------------------------------------
# tree structure (cached per geometry)
# ----------------------------------------------------------------------
class _Geometry(NamedTuple):
    """Scan order and parent links of an (h, w) pyramid, by scan position.

    ``groups`` cuts the scan into LL, level *L*, …, level 1 as
    ``(lo, hi, up)`` with ``up`` each node's parent as an index into the
    previous group (all zero for LL: the roots hang from one virtual node).
    """

    scan: IntArray       # flat coefficient index at each scan position
    parent: IntArray     # scan position of each node's parent (roots: 0, unused)
    groups: tuple[tuple[int, int, IntArray], ...]


@lru_cache(maxsize=32)
def _geometry(h: int, w: int, levels: int) -> _Geometry:
    if levels < 1 or h < 1 or w < 1 or h % (1 << levels) or w % (1 << levels):
        raise ValueError(f"no {levels}-level pyramid on a {h}x{w} array")
    h0, w0 = h >> levels, w >> levels
    scan = [(np.arange(h0, dtype=np.intp)[:, None] * w + np.arange(w0, dtype=np.intp)).ravel()]
    ups = [np.zeros(h0 * w0, dtype=np.intp)]
    for k in range(levels, 0, -1):  # coarsest detail level first
        hk, wk = h >> k, w >> k
        i, j = np.arange(hk, dtype=np.intp)[:, None], np.arange(wk, dtype=np.intp)
        cell = i * w + j
        scan += [(cell + wk).ravel(), (cell + hk * w).ravel(), (cell + hk * w + wk).ravel()]  # HL, LH, HH
        if k == levels:  # all three bands hang from the LL node at the same (i, j)
            ups.append(np.tile((i * wk + j).ravel(), 3))
        else:            # 2x2 blocks under the same band one level coarser
            up = ((i // 2) * (wk // 2) + j // 2).ravel()
            ups.append(np.concatenate([up + band * (up.size // 4) for band in range(3)]))
    bounds = np.cumsum([0, h0 * w0] + [up.size for up in ups[1:]]).tolist()
    parent = np.concatenate([ups[0]] + [up + lo for up, lo in zip(ups[1:], bounds)])
    groups = tuple((lo, hi, up) for lo, hi, up in zip(bounds, bounds[1:], ups))
    return _Geometry(np.concatenate(scan), parent, groups)


def _max4(a: FloatArray, b: FloatArray, c: FloatArray, d: FloatArray) -> FloatArray:
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def _tree_max(mags: FloatArray, levels: int) -> FloatArray:
    """Largest magnitude at each node or anywhere below it (2-D layout)."""
    M = mags.copy()
    h, w = M.shape
    for k in range(2, levels + 1):  # fine → coarse: children before parents
        hk, wk = h >> k, w >> k
        # the children of (i, j) in any level-k band are the 2x2 block at (2i, 2j)
        kids = M[: 4 * hk, : 4 * wk]
        below = _max4(kids[0::2, 0::2], kids[0::2, 1::2], kids[1::2, 0::2], kids[1::2, 1::2])
        below[:hk, :wk] = 0.0  # that quadrant is the coarser levels, not level k
        np.maximum(M[: 2 * hk, : 2 * wk], below, out=M[: 2 * hk, : 2 * wk])
    h0, w0 = h >> levels, w >> levels
    # an LL node's children sit at the same (i, j) of the three level-L bands
    M[:h0, :w0] = _max4(M[:h0, :w0], M[:h0, w0 : 2 * w0], M[h0 : 2 * h0, :w0], M[h0 : 2 * h0, w0 : 2 * w0])
    return M


# ----------------------------------------------------------------------
# encoded container
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EzwEncoded:
    """An EZW bitstream plus the header needed to decode any prefix."""

    shape: tuple[int, int]
    levels: int
    t0_exp: int          # T0 = 2.0 ** t0_exp
    payload: bytes
    payload_bits: int

    @property
    def total_bits(self) -> int:
        return self.payload_bits

    def truncated(self, max_bits: int) -> "EzwEncoded":
        """A prefix of this stream limited to ``max_bits`` payload bits."""
        bits = max(0, min(self.payload_bits, int(max_bits)))
        nbytes = (bits + 7) // 8
        return EzwEncoded(self.shape, self.levels, self.t0_exp, self.payload[:nbytes], bits)


# ----------------------------------------------------------------------
# encoder
# ----------------------------------------------------------------------
def ezw_encode(coeffs: np.ndarray, levels: int, max_bits: int | None = None) -> EzwEncoded:
    """Encode a wavelet-coefficient array into an embedded bitstream.

    ``max_bits`` stops the encoder early (rate control; the symbol that
    crosses the budget is still written whole); :data:`MIN_THRESHOLD`
    bounds the deepest refinement.
    """
    c = np.asarray(coeffs, dtype=float)
    h, w = c.shape
    geo = _geometry(h, w, levels)
    mags2d = np.abs(c)
    cmax = float(mags2d.max())
    if cmax == 0.0:
        return EzwEncoded((h, w), levels, 0, b"", 0)
    t0_exp = int(np.floor(np.log2(cmax)))
    T = 2.0 ** t0_exp

    # everything below is indexed by scan position
    mags = mags2d.ravel()[geo.scan]
    neg = ~(c.ravel() >= 0)[geo.scan]
    tree = _tree_max(mags2d, levels).ravel()[geo.scan]
    above = tree[geo.parent]
    above[: geo.groups[0][1]] = np.inf  # roots are always visited

    n = mags.size
    significant = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.intp)  # scan positions, in significance order
    low = np.empty(n)                    # interval low, in significance order
    n_sig = 0
    budget = sys.maxsize if max_bits is None else max_bits
    chunks: list[BitArray] = [np.zeros(0, dtype=np.uint8)]  # so that no pass at all still concatenates
    written = 0
    while T >= MIN_THRESHOLD and written < budget:
        # ---- dominant pass --------------------------------------------
        visit = (~significant & (above >= T)).nonzero()[0]
        if visit.size:
            hit = mags[visit] >= T
            length = 1 + (tree[visit] >= T) + hit  # ZTR 1, IZ 2, POS/NEG 3
            end = np.cumsum(length)
            keep = int(np.searchsorted(end - length, budget - written))  # start inside the budget
            visit, hit, length, end = visit[:keep], hit[:keep], length[:keep], end[:keep]
            bits = np.zeros(end[-1], dtype=np.uint8)
            start = end - length
            bits[start] = length > 1
            won, at = visit[hit], start[hit]
            bits[at + 1] = 1
            bits[at + 2] = neg[won]
            chunks.append(bits)
            written += int(end[-1])
            significant[won] = True
            new = slice(n_sig, n_sig + won.size)
            order[new] = won
            low[new] = T
            n_sig = new.stop
        # ---- subordinate pass (every interval is T wide here) ---------
        m = max(0, min(n_sig, budget - written))
        half = T / 2.0
        upper = mags[order[:m]] >= low[:m] + half
        low[:m] += half * upper
        chunks.append(upper.view(np.uint8))
        written += m
        T = half

    payload = np.packbits(np.concatenate(chunks)).tobytes()
    return EzwEncoded((h, w), levels, t0_exp, payload, written)


# ----------------------------------------------------------------------
# decoder
# ----------------------------------------------------------------------
class _Symbols:
    """Dominant-pass symbols of one stream, readable from any bit position.

    Symbol boundaries do not depend on the tree.  Every ``0`` ends a symbol
    (``0``, ``10``, ``110``) and the ``r`` ones before it hold ``r // 3``
    whole ``111``s first, so the zeros alone give every symbol of a parse
    that starts at bit 0 — and of a dominant pass that starts anywhere
    else (mid-run, after subordinate bits) from its first ``0`` on.  Only
    symbols whose last bit lies inside ``limit`` count: the reference
    reader records nothing for a symbol it runs out of bits in.
    """

    def __init__(self, payload: bytes, limit: int) -> None:
        self.limit = limit
        # one 0 of padding ends the last run of ones
        self.bits: BitArray = np.concatenate(
            [np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=limit), np.zeros(1, dtype=np.uint8)]
        )
        self.zero_at: IntArray = (self.bits == 0).nonzero()[0]
        ones = np.diff(self.zero_at, prepend=-1) - 1  # length of the run before each 0
        threes = ones // 3
        #: index, among all symbols, of the one each 0 ends
        self.closes: IntArray = np.cumsum(threes + 1) - 1
        kind = np.full(self.closes[-1] + 1, _NEG, dtype=np.uint8)
        kind[self.closes] = ones - 3 * threes  # 0 ZTR, 1 IZ, 2 POS
        self.kind: BitArray = kind[:-1]  # the padding cuts the last symbol short

    def dominant(self, p: int, cap: int) -> BitArray:
        """Kinds of the whole symbols from bit ``p`` on (about ``cap`` at most)."""
        i = int(np.searchsorted(self.zero_at, p))
        z = int(self.zero_at[i])  # first 0 at or after p
        # ones from p to z: 111 (NEG) as often as it fits, then 0 / 10 / 110
        threes, rest = divmod(z - p, 3)
        head = [_NEG] * threes
        if z < self.limit:  # else that 0 is the padding: the symbol it would end is cut short
            head.append(rest)
        j = int(self.closes[i]) + 1
        return np.concatenate([np.array(head, dtype=np.uint8), self.kind[j : j + cap]])


_OPEN: BoolArray = np.ones(1, dtype=bool)  # the virtual node above the roots: never in a zerotree


def ezw_decode(encoded: EzwEncoded) -> np.ndarray:
    """Decode (a possibly truncated) EZW stream back to coefficients.

    Runs the same scan as the encoder, reconstructing each significant
    coefficient at the midpoint of its current uncertainty interval.
    Exhausting the stream mid-pass simply stops refinement.
    """
    h, w = encoded.shape
    geo = _geometry(h, w, encoded.levels)
    n = h * w
    recon = np.zeros(n)
    limit = min(encoded.payload_bits, 8 * len(encoded.payload))
    if limit <= 0:
        return recon.reshape(h, w)
    T = 2.0 ** encoded.t0_exp
    symbols = _Symbols(encoded.payload, limit)

    waiting = np.ones(n, dtype=bool)     # not yet significant, by scan position
    order = np.empty(n, dtype=np.intp)  # scan positions, in significance order
    neg = np.empty(n, dtype=bool)        # these three in significance order
    low = np.empty(n)
    width = np.empty(n)
    n_sig = 0
    p = 0                                # bits consumed
    while T >= MIN_THRESHOLD and p < limit:
        # ---- dominant pass: which nodes are coded, one group (LL, level L,
        # ..., level 1) at a time; then what their symbols say, all at once
        kinds = symbols.dominant(p, n - n_sig)
        used = 0
        visited = []
        opened = _OPEN
        for lo, hi, up in geo.groups:
            opened = opened[up]  # not under a node that sent ZTR this pass
            coded = (opened & waiting[lo:hi]).nonzero()[0]
            got = kinds[used : used + coded.size]
            used += got.size
            cut_short = got.size < coded.size
            if cut_short:
                coded = coded[: got.size]
            opened[coded[got == _ZTR]] = False
            visited.append(coded + lo)
            if cut_short or not np.count_nonzero(opened):  # all that is finer is in a zerotree
                break
        got = kinds[:used]
        hit = got >= 2
        won = np.concatenate(visited)[hit]
        waiting[won] = False
        new = slice(n_sig, n_sig + won.size)
        order[new] = won
        neg[new] = got[hit] == _NEG
        low[new] = width[new] = T
        n_sig = new.stop
        if cut_short:  # the stream ended inside the pass
            break
        p += used + np.count_nonzero(got) + won.size  # ZTR 1 bit, IZ 2, POS/NEG 3
        # ---- subordinate pass (every interval is T wide here) ---------
        m = min(n_sig, limit - p)
        half = T / 2.0
        low[:m] += half * symbols.bits[p : p + m]
        width[:m] = half
        p += m
        T = half

    value = low[:n_sig] + width[:n_sig] / 2.0
    recon[geo.scan[order[:n_sig]]] = np.where(neg[:n_sig], -value, value)
    return recon.reshape(h, w)


# ----------------------------------------------------------------------
# image-level convenience (single channel)
# ----------------------------------------------------------------------
def encode_image(image: np.ndarray, levels: int, max_bits: int | None = None) -> EzwEncoded:
    """DWT + EZW-encode one grayscale channel (float or uint8)."""
    coeffs = haar_dwt2(np.asarray(image, dtype=float), levels)
    return ezw_encode(coeffs, levels, max_bits=max_bits)


def decode_image(encoded: EzwEncoded) -> np.ndarray:
    """Decode one channel and invert the DWT (float output).

    An empty prefix (a budget of 0 packets) decodes to zeros, the inverse
    transform of all-zero coefficients, without running either.
    """
    if min(encoded.payload_bits, 8 * len(encoded.payload)) <= 0:
        return np.zeros(encoded.shape)
    coeffs = ezw_decode(encoded)
    return haar_idwt2(coeffs, encoded.levels)
