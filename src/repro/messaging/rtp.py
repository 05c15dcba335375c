"""RTP/RTCP-thin layer: fragmentation, reordering, reassembly, reports.

"A thin layer based on the RTP-RTCP scheme is built on top of the
communication substrate to provide limited in-order delivery assurance.
Data messages containing information such as images ... require
transmission of several data packets.  Reliable and ordered delivery of
these packets is critical" (paper Sec. 5.1).

* :class:`RtpPacketizer` splits an application payload into MTU-sized
  fragments, each with a 16-byte header (ssrc, seq, message seq,
  fragment index/count).
* :class:`RtpReassembler` reorders fragments per message, detects loss,
  completes messages, and produces RTCP-style receiver reports (fraction
  lost, cumulative lost, highest seq, interarrival jitter).

A lost fragment is not retransmitted at this layer: its message is
abandoned (and counted in :class:`RtcpReport`), and the receiver asks the
application above for what it still wants — image packets through
``ImageRepairRequest``, session events through ``HistoryRequest``.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "RtpPacket",
    "RtpPacketizer",
    "RtpReassembler",
    "RtcpReport",
    "RtpError",
    "DEFAULT_MTU",
    "REORDER_WINDOW",
]

#: Fragment payload budget; a LAN-ish MTU minus our header.
DEFAULT_MTU = 1400

_HEADER = struct.Struct(">IIHHI")  # ssrc, msg_seq, frag_index, frag_count, seq
HEADER_SIZE = _HEADER.size

#: Per source, a reassembler tracks only the newest message-seq and the
#: this-many before it (see :class:`RtpReassembler`).
REORDER_WINDOW = 64

#: Sources (ssrcs) a reassembler tracks at once; hearing one more evicts
#: the least recently heard, so corrupted or hostile ssrcs cannot grow it.
MAX_TRACKED_SOURCES = 1024

_ZERO_STAT = {"received": 0, "highest_seq": -1, "completed": 0, "abandoned": 0, "newest_msg": -1}


class RtpError(ValueError):
    """Raised on malformed RTP fragments."""


@dataclass(frozen=True)
class RtpPacket:
    """One wire fragment."""

    ssrc: int
    msg_seq: int
    frag_index: int
    frag_count: int
    seq: int          # global per-sender sequence number (loss detection)
    payload: bytes

    def encode(self) -> bytes:
        return _HEADER.pack(self.ssrc, self.msg_seq, self.frag_index, self.frag_count, self.seq) + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "RtpPacket":
        if len(data) < HEADER_SIZE:
            raise RtpError(f"fragment shorter than header: {len(data)}")
        ssrc, msg_seq, frag_index, frag_count, seq = _HEADER.unpack_from(data)
        if frag_count == 0 or frag_index >= frag_count:
            raise RtpError(f"bad fragment indices {frag_index}/{frag_count}")
        return cls(ssrc, msg_seq, frag_index, frag_count, seq, data[HEADER_SIZE:])


class RtpPacketizer:
    """Sender side: application payload → sequence of fragments."""

    def __init__(self, ssrc: int, mtu: int = DEFAULT_MTU) -> None:
        if mtu <= HEADER_SIZE:
            raise RtpError(f"mtu must exceed header size {HEADER_SIZE}")
        self.ssrc = ssrc
        self.mtu = mtu
        self._msg_seq = 0
        self._seq = 0

    def packetize(self, payload: bytes) -> list[RtpPacket]:
        """Fragment ``payload``; empty payloads still produce one fragment."""
        budget = self.mtu - HEADER_SIZE
        chunks = [payload[i : i + budget] for i in range(0, len(payload), budget)] or [b""]
        if len(chunks) > 0xFFFF:
            raise RtpError("payload needs too many fragments")
        msg_seq = self._msg_seq
        self._msg_seq = (self._msg_seq + 1) & 0xFFFFFFFF
        out = []
        for idx, chunk in enumerate(chunks):
            out.append(
                RtpPacket(self.ssrc, msg_seq, idx, len(chunks), self._seq, chunk)
            )
            self._seq = (self._seq + 1) & 0xFFFFFFFF
        return out


@dataclass
class RtcpReport:
    """Receiver-side statistics in RTCP RR spirit."""

    ssrc: int
    packets_received: int
    packets_expected: int
    cumulative_lost: int
    highest_seq: int
    fraction_lost: float
    messages_completed: int
    messages_abandoned: int


@dataclass
class _PartialMessage:
    frag_count: int
    fragments: dict[int, bytes] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.fragments) == self.frag_count

    def assemble(self) -> bytes:
        return b"".join(self.fragments[i] for i in range(self.frag_count))


class RtpReassembler:
    """Receiver side: fragments → complete payloads, per source (ssrc).

    ``on_message`` is called with ``(ssrc, payload_bytes)`` when a message
    completes.  Per source, only the newest message-seq and the
    :data:`REORDER_WINDOW` before it are tracked: :meth:`ingest` abandons
    a partial message the moment newer traffic pushes it out of that
    window, and drops a late fragment from behind it instead of
    re-opening the message — so memory is bounded by the window under any
    loss pattern, with no timer needed, and delivery stays exactly-once.
    The number of sources is bounded too (:data:`MAX_TRACKED_SOURCES`):
    the least recently heard source is evicted — its statistics and
    delivered keys dropped, its partial messages abandoned.
    """

    def __init__(self, on_message: Callable[[int, bytes], None]) -> None:
        self.on_message = on_message
        self._partial: dict[tuple[int, int], _PartialMessage] = {}
        #: per-source counters, least recently heard first
        self._stats: OrderedDict[int, dict] = OrderedDict()
        self._delivered: set[tuple[int, int]] = set()
        self._abandoned_unreported = 0

    def _heard(self, ssrc: int) -> dict:
        """The stats of a source a fragment just arrived from (now newest)."""
        st = self._stats.get(ssrc)
        if st is not None:
            self._stats.move_to_end(ssrc)
            return st
        st = self._stats[ssrc] = dict(_ZERO_STAT)
        if len(self._stats) > MAX_TRACKED_SOURCES:
            stalest, old = next(iter(self._stats.items()))
            # sliding its window past everything settles all it holds
            self._slide_window(stalest, old, old["newest_msg"] + REORDER_WINDOW + 1)
            del self._stats[stalest]
        return st

    # ------------------------------------------------------------------
    def ingest(self, data: bytes) -> None:
        """Feed one wire fragment (possibly out of order or duplicated)."""
        pkt = RtpPacket.decode(data)
        st = self._heard(pkt.ssrc)
        st["received"] += 1
        st["highest_seq"] = max(st["highest_seq"], pkt.seq)
        if pkt.msg_seq > st["newest_msg"]:
            self._slide_window(pkt.ssrc, st, pkt.msg_seq)
        elif st["newest_msg"] - pkt.msg_seq > REORDER_WINDOW:
            return  # from behind the window: that message is settled
        key = (pkt.ssrc, pkt.msg_seq)
        if key in self._delivered:
            return  # duplicate fragment of an already-delivered message
        part = self._partial.get(key)
        if part is None:
            part = _PartialMessage(pkt.frag_count)
            self._partial[key] = part
        elif part.frag_count != pkt.frag_count:
            raise RtpError(f"inconsistent frag_count for message {key}")
        part.fragments[pkt.frag_index] = pkt.payload  # dup fragment overwrites
        if part.complete:
            payload = part.assemble()
            del self._partial[key]
            self._delivered.add(key)
            st["completed"] += 1
            self.on_message(pkt.ssrc, payload)

    def _slide_window(self, ssrc: int, st: dict, newest: int) -> None:
        """Advance a source's newest message-seq; settle what falls out."""
        old = st["newest_msg"]
        st["newest_msg"] = newest
        # everything tracked for this source sits in [old - window, old]
        for msg_seq in range(
            max(0, old - REORDER_WINDOW), min(old + 1, newest - REORDER_WINDOW)
        ):
            self._delivered.discard((ssrc, msg_seq))
            if (ssrc, msg_seq) in self._partial:
                self._abandon(ssrc, msg_seq)

    def _abandon(self, ssrc: int, msg_seq: int) -> None:
        del self._partial[ssrc, msg_seq]
        self._stats[ssrc]["abandoned"] += 1
        self._abandoned_unreported += 1

    def expire(self) -> int:
        """How many messages were abandoned since the previous call.

        :meth:`ingest` abandons them as newer traffic pushes them out of
        the reorder window; per source the total is
        ``report(ssrc).messages_abandoned``.
        """
        abandoned, self._abandoned_unreported = self._abandoned_unreported, 0
        return abandoned

    # ------------------------------------------------------------------
    def report(self, ssrc: int) -> RtcpReport:
        """RTCP-style receiver report for one source (all zero if untracked)."""
        st = self._stats.get(ssrc, _ZERO_STAT)
        expected = st["highest_seq"] + 1 if st["highest_seq"] >= 0 else 0
        lost = max(0, expected - st["received"])
        return RtcpReport(
            ssrc=ssrc,
            packets_received=st["received"],
            packets_expected=expected,
            cumulative_lost=lost,
            highest_seq=st["highest_seq"],
            fraction_lost=(lost / expected) if expected else 0.0,
            messages_completed=st["completed"],
            messages_abandoned=st["abandoned"],
        )

