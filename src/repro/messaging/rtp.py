"""RTP-thin layer: fragmentation, reordering, reassembly.

"A thin layer based on the RTP-RTCP scheme is built on top of the
communication substrate to provide limited in-order delivery assurance.
Data messages containing information such as images ... require
transmission of several data packets.  Reliable and ordered delivery of
these packets is critical" (paper Sec. 5.1).

* :class:`RtpPacketizer` splits an application payload into MTU-sized
  fragments, each with a 16-byte header (ssrc, seq, message seq,
  fragment index/count).
* :class:`RtpReassembler` reorders fragments per message and completes
  messages inside a bounded window per source.

A lost fragment is not retransmitted at this layer: its message is
abandoned and counted (:attr:`RtpReassembler.abandoned`).  A peer gets
back what it missed one layer up, from the session history
(``HistoryRequest``).
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "RtpPacket",
    "RtpPacketizer",
    "RtpReassembler",
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


class RtpError(ValueError):
    """Raised on malformed RTP fragments."""


@dataclass(frozen=True)
class RtpPacket:
    """One wire fragment."""

    ssrc: int
    msg_seq: int
    frag_index: int
    frag_count: int
    seq: int          # global per-sender sequence number (the reassembler ignores it)
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

    def __init__(self, ssrc: int) -> None:
        if DEFAULT_MTU <= HEADER_SIZE:
            raise RtpError(f"mtu must exceed header size {HEADER_SIZE}")
        self.ssrc = ssrc
        self.mtu = DEFAULT_MTU
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
class _PartialMessage:
    frag_count: int
    fragments: dict[int, bytes] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.fragments) == self.frag_count

    def assemble(self) -> bytes:
        return b"".join(self.fragments[i] for i in range(self.frag_count))


class _Source:
    """What the reorder window needs of one source."""

    __slots__ = ("newest", "prior", "kept")

    def __init__(self) -> None:
        #: newest message-seq heard
        self.newest = -1
        #: ``newest`` before a forward jump not yet confirmed, else None
        self.prior: Optional[int] = None
        #: message-seqs delivered in the window before that jump
        self.kept: tuple[int, ...] = ()


class RtpReassembler:
    """Receiver side: fragments → complete payloads, per source (ssrc).

    ``on_message`` is called with ``(ssrc, payload_bytes)`` when a message
    completes.  Per source, only the newest message-seq and the
    :data:`REORDER_WINDOW` before it are tracked: newer traffic pushing a
    partial message out of that window abandons it, and a fragment from
    behind the window is dropped (and counted) rather than re-opening its
    message — so memory is bounded under any loss pattern, with no timer,
    and delivery stays exactly-once.

    A forward jump past the window (a unicast sender's seqs jump between
    the messages one receiver gets) is taken at once, but stays
    provisional so that one damaged header cannot strand its source: a
    fragment within the jumped-to window confirms it, and one from behind
    that window but not behind the old one restores the old sequence.  A
    source's first fragment sets its window.  The least recently heard
    source beyond :data:`MAX_TRACKED_SOURCES` is evicted, its partial
    messages abandoned.
    """

    def __init__(self, on_message: Callable[[int, bytes], None]) -> None:
        self.on_message = on_message
        self._partial: dict[tuple[int, int], _PartialMessage] = {}
        #: per-source window state, least recently heard first
        self._sources: OrderedDict[int, _Source] = OrderedDict()
        self._delivered: set[tuple[int, int]] = set()
        #: messages abandoned since construction, evicted sources included;
        #: monotone — readers take differences
        self.abandoned = 0
        #: fragments dropped from behind their source's window; monotone
        self.behind_window = 0

    def _heard(self, ssrc: int) -> _Source:
        """The state of a source heard for the first time (now newest)."""
        src = self._sources[ssrc] = _Source()
        if len(self._sources) > MAX_TRACKED_SOURCES:
            stalest, old = next(iter(self._sources.items()))
            # sliding its window past everything settles all it holds
            self._slide_window(stalest, old, old.newest + REORDER_WINDOW + 1)
            del self._sources[stalest]
        return src

    # ------------------------------------------------------------------
    def ingest(self, data: bytes) -> None:
        """Feed one wire fragment (possibly out of order or duplicated).

        The header is checked as :meth:`RtpPacket.decode` checks it, but
        no packet object is built; a whole message in one fragment is
        delivered straight from ``data``.
        """
        if len(data) < HEADER_SIZE:
            raise RtpError(f"fragment shorter than header: {len(data)}")
        ssrc, msg_seq, frag_index, frag_count, _seq = _HEADER.unpack_from(data)
        if frag_count == 0 or frag_index >= frag_count:
            raise RtpError(f"bad fragment indices {frag_index}/{frag_count}")
        src = self._sources.get(ssrc)
        if src is None:
            src = self._heard(ssrc)
        else:
            self._sources.move_to_end(ssrc)
            if src.prior is not None:
                self._settle_jump(ssrc, src, src.prior, msg_seq)
        newest = src.newest
        if msg_seq > newest:
            if msg_seq - newest > REORDER_WINDOW and newest >= 0 and src.prior is None:
                src.prior = newest
                src.kept = tuple(
                    s for s in range(max(0, newest - REORDER_WINDOW), newest + 1)
                    if (ssrc, s) in self._delivered
                )
            self._slide_window(ssrc, src, msg_seq)
        elif newest - msg_seq > REORDER_WINDOW:
            self.behind_window += 1
            return  # from behind the window: that message is settled
        key = (ssrc, msg_seq)
        if key in self._delivered:
            return  # duplicate fragment of an already-delivered message
        part = self._partial.get(key)
        if part is None:
            if frag_count == 1:
                self._delivered.add(key)
                self.on_message(ssrc, data[HEADER_SIZE:])
                return
            part = _PartialMessage(frag_count)
            self._partial[key] = part
        elif part.frag_count != frag_count:
            raise RtpError(f"inconsistent frag_count for message {key}")
        part.fragments[frag_index] = data[HEADER_SIZE:]  # dup fragment overwrites
        if part.complete:
            payload = part.assemble()
            del self._partial[key]
            self._delivered.add(key)
            self.on_message(ssrc, payload)

    def _settle_jump(self, ssrc: int, src: _Source, prior: int, msg_seq: int) -> None:
        """Confirm or undo the unconfirmed jump from ``prior``, given the next fragment."""
        if msg_seq - src.newest > REORDER_WINDOW or prior - msg_seq > REORDER_WINDOW:
            return  # a further jump, or from behind both windows: nothing settled
        if src.newest - msg_seq > REORDER_WINDOW:
            # behind the new window, not the old one: the sequence from
            # before the jump goes on, so the jump was a damaged header —
            # settle its window and reopen the old one
            self._slide_window(ssrc, src, src.newest + REORDER_WINDOW + 1)
            src.newest = prior
            self._delivered.update((ssrc, s) for s in src.kept)
        src.prior = None
        src.kept = ()

    def _slide_window(self, ssrc: int, src: _Source, newest: int) -> None:
        """Advance a source's newest message-seq; settle what falls out."""
        old = src.newest
        src.newest = newest
        # everything tracked for this source sits in [old - window, old]
        for msg_seq in range(
            max(0, old - REORDER_WINDOW), min(old + 1, newest - REORDER_WINDOW)
        ):
            self._delivered.discard((ssrc, msg_seq))
            if (ssrc, msg_seq) in self._partial:
                del self._partial[ssrc, msg_seq]
                self.abandoned += 1
