"""Progressive image transmission: packetization of embedded bitstreams.

The image viewer splits a coded image into up to 16 packets; the inference
engine tells the receiver how many to accept (one of :data:`PACKET_COUNTS`).
Because the EZW stream is embedded, the first *k* packets form a decodable
prefix and "image detail is hierarchically added" as more packets arrive.

Multi-channel (color) images are handled by splitting every channel's
stream into the same number of prefix increments and bundling increment
*k* of each channel into packet *k* — so any packet prefix yields a
balanced-quality color reconstruction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .._recent import CAPACITY, Recent
from .ezw import EzwEncoded, decode_image, encode_image
from .metrics import bpp, compression_ratio, psnr
from .wavelet import max_levels

__all__ = ["ImagePacket", "ImagePacketError", "ProgressiveImage", "ReceptionReport", "PACKET_COUNTS"]


class ImagePacketError(ValueError):
    """Raised on truncated or corrupt image-packet bytes."""

#: The packet counts the paper's inference engine selects among (FIG6).
PACKET_COUNTS = (1, 2, 4, 8, 16)
#: The packets a shared image is cut into: the largest budget (paper: 16).
FULL_BUDGET = PACKET_COUNTS[-1]
#: The largest image a receiver assembles (64x the 128x128 the repo
#: shares): the geometry comes off the wire, and a reconstruction
#: allocates arrays of this many pixels.
MAX_RECEIVED_PIXELS = 1024 * 1024


@dataclass(frozen=True)
class ImagePacket:
    """One transmissible increment of a progressive image.

    ``chunks[c]`` is ``(payload_bytes, n_bits)`` for channel ``c``.
    """

    index: int
    total: int
    chunks: tuple[tuple[bytes, int], ...]

    @property
    def n_bits(self) -> int:
        return sum(bits for _, bits in self.chunks)

    @property
    def n_bytes(self) -> int:
        return sum(len(data) for data, _ in self.chunks)

    def to_bytes(self) -> bytes:
        """Flatten for transmission (header: index, total, per-chunk bits)."""
        out = bytearray()
        out += self.index.to_bytes(2, "big")
        out += self.total.to_bytes(2, "big")
        out += len(self.chunks).to_bytes(1, "big")
        for data, bits in self.chunks:
            out += bits.to_bytes(4, "big")
            out += len(data).to_bytes(4, "big")
            out += data
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ImagePacket":
        """Inverse of :meth:`to_bytes`; :class:`ImagePacketError` on
        truncated or corrupt input (short slices would otherwise decode
        silently-wrong values, not just crash).  Bytes equal to a recent
        successful decode's return that same packet."""
        kept = _packets.recall(raw)
        if kept is not None:
            return kept
        if len(raw) < 5:
            raise ImagePacketError(f"packet header needs 5 bytes, have {len(raw)}")
        index = int.from_bytes(raw[0:2], "big")
        total = int.from_bytes(raw[2:4], "big")
        n_chunks = raw[4]
        chunks = []
        pos = 5
        for _ in range(n_chunks):
            if pos + 8 > len(raw):
                raise ImagePacketError("truncated chunk header")
            bits = int.from_bytes(raw[pos : pos + 4], "big")
            ln = int.from_bytes(raw[pos + 4 : pos + 8], "big")
            end = pos + 8 + ln
            if end > len(raw):
                raise ImagePacketError(f"chunk payload runs past the packet: need {end} byte(s), have {len(raw)}")
            if bits > 8 * ln:
                raise ImagePacketError(f"chunk claims {bits} bit(s) in {ln} byte(s)")
            chunks.append((raw[pos + 8 : end], bits))
            pos = end
        if pos != len(raw):
            raise ImagePacketError(f"{len(raw) - pos} byte(s) after the last chunk")
        return _packets.keep(cls(index, total, tuple(chunks)), raw)


#: packet bytes -> the packet they decoded to, for the payloads receivers share
_packets: Recent[ImagePacket] = Recent(CAPACITY)


@dataclass
class ReceptionReport:
    """Metrics of a reconstruction from a subset of packets."""

    packets_used: int
    bits_used: int
    bpp: float
    compression_ratio: float
    psnr_db: float


class ProgressiveImage:
    """Encode once, packetize, reconstruct from any packet prefix.

    Parameters
    ----------
    image:
        ``uint8`` grayscale ``(h, w)`` or color ``(h, w, 3)``.
    n_packets:
        How many packets to cut the stream into (paper: 16).
    target_bpp:
        Optional rate control: cap the full-quality stream at this many
        bits per pixel (channel bits share the pixel budget).  ``None``
        encodes to (near-)lossless depth.

    The wavelet decomposition is the deepest the image supports, at most 5
    levels.
    """

    def __init__(
        self,
        image: np.ndarray,
        n_packets: int = FULL_BUDGET,
        target_bpp: Optional[float] = None,
    ) -> None:
        img = np.asarray(image)
        if img.ndim == 2:
            channels = [img]
        elif img.ndim == 3:
            channels = [img[..., c] for c in range(img.shape[-1])]
        else:
            raise ValueError(f"expected 2-D or 3-D image, got ndim={img.ndim}")
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        self.image = img
        self.shape = img.shape
        self.n_packets = n_packets
        h, w = img.shape[0], img.shape[1]
        self.levels = min(5, max_levels((h, w)))
        if self.levels < 1:
            raise ValueError(f"image {h}x{w} supports no wavelet levels")

        per_channel_bits: Optional[int] = None
        if target_bpp is not None:
            per_channel_bits = max(1, int(target_bpp * h * w / len(channels)))
        self.encoded: list[EzwEncoded] = [
            encode_image(ch, self.levels, max_bits=per_channel_bits) for ch in channels
        ]
        self.total_bits = sum(e.payload_bits for e in self.encoded)
        #: per-channel cut points in bits, byte-aligned for cheap slicing
        self._edges: list[list[int]] = []
        for enc in self.encoded:
            edges = np.round(np.linspace(0, enc.payload_bits, n_packets + 1) / 8).astype(int) * 8
            edges[-1] = enc.payload_bits
            self._edges.append(edges.tolist())

    # ------------------------------------------------------------------
    def packets(self) -> list[ImagePacket]:
        """Cut every channel stream into ``n_packets`` prefix increments."""
        out = []
        for k in range(self.n_packets):
            chunks = []
            for enc, edges in zip(self.encoded, self._edges):
                b0, b1 = edges[k], edges[k + 1]
                data = enc.payload[b0 // 8 : (b1 + 7) // 8]
                chunks.append((data, b1 - b0))
            out.append(ImagePacket(k, self.n_packets, tuple(chunks)))
        return out

    # ------------------------------------------------------------------
    def reconstruct(self, n_received: int) -> np.ndarray:
        """Decode from the first ``n_received`` packets (clamped to range)."""
        k = max(0, min(self.n_packets, int(n_received)))
        recon_channels = []
        for enc, edges in zip(self.encoded, self._edges):
            rec = decode_image(enc.truncated(edges[k]))
            recon_channels.append(np.clip(rec, 0, 255))
        if self.image.ndim == 2:
            return recon_channels[0]
        return np.stack(recon_channels, axis=-1)

    @property
    def t0_exps(self) -> tuple[int, ...]:
        """Per-channel EZW threshold exponents (decode parameters)."""
        return tuple(e.t0_exp for e in self.encoded)

    @property
    def channels(self) -> int:
        return 1 if self.image.ndim == 2 else self.image.shape[-1]


class ReceivedImage:
    """Receiver-side assembly of a progressive image from packets.

    Construct from the announce metadata (shape, levels, per-channel
    threshold exponents, packet count), feed :class:`ImagePacket` objects
    as they arrive (any order), and :meth:`reconstruct` from whatever
    contiguous prefix is available — embedded coding means a missing
    middle packet caps usable quality at the gap.
    """

    def __init__(
        self,
        height: int,
        width: int,
        channels: int,
        levels: int,
        t0_exps: Sequence[int],
        n_packets: int,
    ) -> None:
        # every argument may come straight off the wire (ImageShareAnnounce)
        if len(t0_exps) != channels:
            raise ImagePacketError(f"need one t0_exp per channel: {len(t0_exps)} vs {channels}")
        if height < 1 or width < 1 or height * width > MAX_RECEIVED_PIXELS:
            raise ImagePacketError(f"a {height}x{width} image is outside 1..{MAX_RECEIVED_PIXELS} pixels")
        # compared, never shifted: a peer's levels may be 2**31 - 1
        if not 1 <= levels <= max_levels((height, width)):
            raise ImagePacketError(f"no {levels}-level pyramid on a {height}x{width} image")
        if n_packets < 1:
            raise ImagePacketError(f"n_packets must be >= 1, got {n_packets}")
        if any(e >= sys.float_info.max_exp for e in t0_exps):
            raise ImagePacketError(f"threshold exponent out of float range: {max(t0_exps)}")
        self.height = height
        self.width = width
        self.n_channels = channels
        self.levels = levels
        self.t0_exps = tuple(int(e) for e in t0_exps)
        self.n_packets = n_packets
        self._packets: dict[int, ImagePacket] = {}

    def add_packet(self, packet: ImagePacket) -> None:
        """Store one packet; duplicates are idempotent."""
        if packet.total != self.n_packets:
            raise ImagePacketError(
                f"packet advertises {packet.total} packets, expected {self.n_packets}"
            )
        if not (0 <= packet.index < self.n_packets):
            raise ImagePacketError(f"packet index {packet.index} out of range")
        if len(packet.chunks) != self.n_channels:
            raise ImagePacketError(f"packet carries {len(packet.chunks)} chunk(s), expected {self.n_channels}")
        self._packets[packet.index] = packet

    @property
    def received(self) -> int:
        """Number of distinct packets held."""
        return len(self._packets)

    @property
    def usable_prefix(self) -> int:
        """Length of the contiguous prefix from packet 0."""
        k = 0
        while k in self._packets:
            k += 1
        return k

    def prefix_bits(self, k: Optional[int] = None) -> int:
        """Payload bits in the first ``k`` packets (default: usable prefix)."""
        k = self.usable_prefix if k is None else k
        return sum(self._packets[i].n_bits for i in range(k))

    def _prefix_stream(self, channel: int, k: int) -> EzwEncoded:
        """One channel's stream as carried by the first ``k`` packets."""
        chunks = [self._packets[i].chunks[channel] for i in range(k)]
        return EzwEncoded(
            (self.height, self.width),
            self.levels,
            self.t0_exps[channel],
            b"".join(data for data, _ in chunks),
            sum(bits for _, bits in chunks),
        )

    def _stack(self, channels: list[np.ndarray]) -> np.ndarray:
        return channels[0] if self.n_channels == 1 else np.stack(channels, axis=-1)

    def reconstruct(self, max_packets: Optional[int] = None) -> np.ndarray:
        """Decode from the usable prefix (optionally capped)."""
        k = self.usable_prefix if max_packets is None else min(self.usable_prefix, max_packets)
        return self._stack(
            [np.clip(decode_image(self._prefix_stream(c, k)), 0, 255) for c in range(self.n_channels)]
        )

    def report(self, original: Optional[np.ndarray] = None, max_packets: Optional[int] = None) -> ReceptionReport:
        """Metrics of the current reconstruction (PSNR needs the original)."""
        k = self.usable_prefix if max_packets is None else min(self.usable_prefix, max_packets)
        bits = self.prefix_bits(k)
        shape = (
            (self.height, self.width)
            if self.n_channels == 1
            else (self.height, self.width, self.n_channels)
        )
        p = float("nan")
        if original is not None:
            p = psnr(original, self.reconstruct(k))
        return ReceptionReport(
            packets_used=k,
            bits_used=bits,
            bpp=bpp(bits, shape[:2]),
            compression_ratio=compression_ratio(bits, shape),
            psnr_db=p,
        )
