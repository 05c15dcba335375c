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
* NACK support: :func:`encode_nack`/:func:`decode_nack` define a tiny
  wire format for requesting missing fragments; the sender keeps recent
  fragments in a :class:`RetransmitBuffer` and the receiver paces its
  requests through :class:`SelectiveRepeat` (bounded exponential
  backoff, bounded attempts) driven by the reassembler's
  :meth:`~RtpReassembler.pending` plumbing.

The reassembler needs to know *when* fragments arrive (stale partial
messages are abandoned by age as well as by reorder distance), so
:meth:`~RtpReassembler.ingest` requires either an explicit ``now=`` or a
``clock`` passed at construction — there is no silent ``now=0.0``
default that would freeze every partial message at t=0 and defeat
age-based expiry.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "RtpPacket",
    "RtpPacketizer",
    "RtpReassembler",
    "RtcpReport",
    "RtpError",
    "RetransmitBuffer",
    "SelectiveRepeat",
    "encode_nack",
    "decode_nack",
    "is_nack",
    "DEFAULT_MTU",
    "NACK_MAGIC",
]

#: Fragment payload budget; a LAN-ish MTU minus our header.
DEFAULT_MTU = 1400

_HEADER = struct.Struct(">IIHHI")  # ssrc, msg_seq, frag_index, frag_count, seq
HEADER_SIZE = _HEADER.size

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
    first_seen: float = 0.0

    @property
    def complete(self) -> bool:
        return len(self.fragments) == self.frag_count

    def assemble(self) -> bytes:
        return b"".join(self.fragments[i] for i in range(self.frag_count))

    def missing(self) -> list[int]:
        return [i for i in range(self.frag_count) if i not in self.fragments]


class RtpReassembler:
    """Receiver side: fragments → complete payloads, per source (ssrc).

    Parameters
    ----------
    on_message:
        Called with ``(ssrc, payload_bytes)`` when a message completes.
    on_gap:
        Optional NACK hook: called with ``(ssrc, msg_seq, missing_indices)``
        when an incomplete message is abandoned.
    reorder_window:
        Per source, only the newest message-seq and the this-many before
        it are tracked.  :meth:`ingest` abandons a partial message the
        moment newer traffic pushes it out of that window, and drops a
        late fragment from behind it instead of re-opening the message —
        so memory is bounded by the window under any loss pattern, with
        no timer needed, and delivery stays exactly-once.  The number of
        sources is bounded too (:data:`MAX_TRACKED_SOURCES`): the least
        recently heard source is evicted — its statistics and delivered
        keys dropped, its partial messages abandoned through ``on_gap``.
    clock:
        Zero-arg callable returning the current (virtual) time; used when
        :meth:`ingest`/:meth:`expire` are called without ``now=``.
        Without a clock, ``now=`` is mandatory — see :meth:`ingest`.
    max_age:
        When set, :meth:`expire` also abandons partial messages whose
        first fragment arrived more than this many seconds ago, even if
        they are still inside the reorder window (a tail-end message
        never pushed out by newer traffic would otherwise linger forever).
    """

    def __init__(
        self,
        on_message: Callable[[int, bytes], None],
        on_gap: Optional[Callable[[int, int, list[int]], None]] = None,
        reorder_window: int = 64,
        clock: Optional[Callable[[], float]] = None,
        max_age: Optional[float] = None,
    ) -> None:
        self.on_message = on_message
        self.on_gap = on_gap
        self.reorder_window = reorder_window
        self.clock = clock
        if max_age is not None and max_age <= 0:
            raise RtpError("max_age must be positive")
        self.max_age = max_age
        self._partial: dict[tuple[int, int], _PartialMessage] = {}
        #: per-source counters, least recently heard first
        self._stats: OrderedDict[int, dict] = OrderedDict()
        self._delivered: set[tuple[int, int]] = set()
        self._abandoned_unreported = 0

    def _resolve_now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        if self.clock is not None:
            return self.clock()
        raise RtpError(
            "ingest/expire need the current time: pass now= explicitly or "
            "construct the reassembler with a clock"
        )

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
            self._slide_window(stalest, old, old["newest_msg"] + self.reorder_window + 1)
            del self._stats[stalest]
        return st

    # ------------------------------------------------------------------
    def ingest(self, data: bytes, now: Optional[float] = None) -> None:
        """Feed one wire fragment (possibly out of order or duplicated).

        ``now`` stamps the partial message's age for :meth:`expire`; it
        may be omitted only when the reassembler was built with a
        ``clock`` (otherwise :class:`RtpError` — an implicit ``0.0``
        would make every partial message look ancient or eternal
        depending on the caller's epoch).
        """
        now = self._resolve_now(now)
        pkt = RtpPacket.decode(data)
        st = self._heard(pkt.ssrc)
        st["received"] += 1
        st["highest_seq"] = max(st["highest_seq"], pkt.seq)
        if pkt.msg_seq > st["newest_msg"]:
            self._slide_window(pkt.ssrc, st, pkt.msg_seq)
        elif st["newest_msg"] - pkt.msg_seq > self.reorder_window:
            return  # from behind the window: that message is settled
        key = (pkt.ssrc, pkt.msg_seq)
        if key in self._delivered:
            return  # duplicate fragment of an already-delivered message
        part = self._partial.get(key)
        if part is None:
            part = _PartialMessage(pkt.frag_count, first_seen=now)
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
            max(0, old - self.reorder_window), min(old + 1, newest - self.reorder_window)
        ):
            self._delivered.discard((ssrc, msg_seq))
            if (ssrc, msg_seq) in self._partial:
                self._abandon(ssrc, msg_seq)

    def _abandon(self, ssrc: int, msg_seq: int) -> None:
        part = self._partial.pop((ssrc, msg_seq))
        self._stats[ssrc]["abandoned"] += 1
        self._abandoned_unreported += 1
        if self.on_gap is not None:
            self.on_gap(ssrc, msg_seq, part.missing())

    def expire(self, now: Optional[float] = None) -> int:
        """Abandon partial messages that are too old; report abandonment.

        Returns how many messages were abandoned since the previous call
        — pushed out of the reorder window by :meth:`ingest`, or aged out
        here; ``on_gap`` fired for each as it happened, so callers can
        NACK or account the loss.  Age-based abandonment only applies
        when ``max_age`` was configured; ``now`` resolves like
        :meth:`ingest` (explicit argument, else the constructor clock)
        but is only required when ``max_age`` is in play.
        """
        if self.max_age is not None:
            now = self._resolve_now(now)
            for (ssrc, msg_seq), part in sorted(self._partial.items()):
                if now - part.first_seen > self.max_age:
                    self._abandon(ssrc, msg_seq)
        abandoned, self._abandoned_unreported = self._abandoned_unreported, 0
        return abandoned

    def pending(self, ssrc: int) -> list[tuple[int, list[int]]]:
        """Incomplete messages for a source: (msg_seq, missing indices)."""
        return [
            (msg_seq, part.missing())
            for (s, msg_seq), part in sorted(self._partial.items())
            if s == ssrc
        ]

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


# ----------------------------------------------------------------------
# NACK-driven selective retransmission
# ----------------------------------------------------------------------
#: Distinguishes NACK datagrams from RTP fragments on a shared port.  An
#: RTP fragment's first four bytes are its ssrc, so collision with the
#: magic would require ssrc 0x524E414B — crc32-derived ssrcs make that a
#: 2**-32 accident per endpoint, and the header-length check below
#: disambiguates the rest.
NACK_MAGIC = b"RNAK"

_NACK_HEADER = struct.Struct(">IIH")  # ssrc, msg_seq, n_indices
_NACK_INDEX = struct.Struct(">H")


def encode_nack(ssrc: int, msg_seq: int, indices: Sequence[int]) -> bytes:
    """Wire-encode a retransmission request for one message's holes."""
    if not indices:
        raise RtpError("a NACK must name at least one missing fragment")
    if len(indices) > 0xFFFF:
        raise RtpError("too many fragment indices for one NACK")
    out = [NACK_MAGIC, _NACK_HEADER.pack(ssrc, msg_seq, len(indices))]
    for idx in indices:
        if not 0 <= idx <= 0xFFFF:
            raise RtpError(f"fragment index out of range: {idx}")
        out.append(_NACK_INDEX.pack(idx))
    return b"".join(out)


def is_nack(data: bytes) -> bool:
    """Cheap dispatch test: does this datagram carry a NACK?"""
    # crc32-derived ssrcs make collision a 2**-32 accident and
    # decode_nack's exact-length check disambiguates the rest
    return data[:4] == NACK_MAGIC  # repro: ignore[WIRE004]


def decode_nack(data: bytes) -> tuple[int, int, tuple[int, ...]]:
    """Decode a NACK datagram → ``(ssrc, msg_seq, missing_indices)``."""
    if not is_nack(data):
        raise RtpError("not a NACK datagram")
    body = data[4:]
    if len(body) < _NACK_HEADER.size:
        raise RtpError("NACK shorter than its header")
    ssrc, msg_seq, count = _NACK_HEADER.unpack_from(body)
    expected = _NACK_HEADER.size + count * _NACK_INDEX.size
    if len(body) != expected or count == 0:
        raise RtpError("NACK length does not match its index count")
    indices = tuple(
        _NACK_INDEX.unpack_from(body, _NACK_HEADER.size + i * _NACK_INDEX.size)[0]
        for i in range(count)
    )
    return ssrc, msg_seq, indices


class RetransmitBuffer:
    """Sender-side ring of recently sent fragments, for answering NACKs.

    Bounded by message count: storing message ``capacity + 1`` evicts
    the oldest retained message's fragments wholesale, so memory is
    ``O(capacity × fragments-per-message)`` regardless of loss patterns.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise RtpError("capacity must be positive")
        self.capacity = capacity
        self._messages: dict[int, dict[int, RtpPacket]] = {}
        self._order: list[int] = []
        self.hits = 0
        self.misses = 0

    def store(self, packets: Iterable[RtpPacket]) -> None:
        """Retain one message's fragments (call once per packetize)."""
        for pkt in packets:
            frags = self._messages.get(pkt.msg_seq)
            if frags is None:
                frags = self._messages[pkt.msg_seq] = {}
                self._order.append(pkt.msg_seq)
                while len(self._order) > self.capacity:
                    evicted = self._order.pop(0)
                    self._messages.pop(evicted, None)
            frags[pkt.frag_index] = pkt

    def fragments(self, msg_seq: int, indices: Sequence[int]) -> list[RtpPacket]:
        """Fragments still retained for a NACK's holes (misses counted)."""
        frags = self._messages.get(msg_seq)
        out: list[RtpPacket] = []
        for idx in indices:
            pkt = frags.get(idx) if frags is not None else None
            if pkt is None:
                self.misses += 1
            else:
                self.hits += 1
                out.append(pkt)
        return out

    @property
    def retained_messages(self) -> int:
        return len(self._messages)


class SelectiveRepeat:
    """Receiver-side NACK pacing: bounded attempts, exponential backoff.

    Feed it the reassembler's :meth:`~RtpReassembler.pending` output via
    :meth:`due`; it returns only the messages whose next request is
    currently admissible and advances their backoff state.  A message is
    given up on after ``max_attempts`` requests — :meth:`exhausted`
    reports those so the caller can stop waiting (and let the
    reassembler's expiry abandon them).
    """

    def __init__(
        self,
        base_delay: float = 0.2,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        max_attempts: int = 4,
    ) -> None:
        if base_delay <= 0 or max_delay < base_delay:
            raise RtpError("need 0 < base_delay <= max_delay")
        if multiplier < 1.0:
            raise RtpError("multiplier must be >= 1")
        if max_attempts <= 0:
            raise RtpError("max_attempts must be positive")
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.max_attempts = max_attempts
        #: (ssrc, msg_seq) -> (attempts made, next admissible time)
        self._state: dict[tuple[int, int], tuple[int, float]] = {}
        self.requests = 0
        self.given_up = 0

    def due(
        self, ssrc: int, pending: Sequence[tuple[int, list[int]]], now: float
    ) -> list[tuple[int, list[int]]]:
        """Admissible NACKs for one source's pending messages, right now.

        Each admitted message's attempt counter and next-due time
        advance; the first request for a message is always admissible.
        """
        out: list[tuple[int, list[int]]] = []
        for msg_seq, missing in pending:
            if not missing:
                continue
            key = (ssrc, msg_seq)
            attempts, next_due = self._state.get(key, (0, float("-inf")))
            if attempts >= self.max_attempts:
                if attempts == self.max_attempts:
                    # count the give-up once, then pin past the limit
                    self.given_up += 1
                    self._state[key] = (attempts + 1, float("inf"))
                continue
            if now < next_due:
                continue
            delay = min(self.base_delay * self.multiplier**attempts, self.max_delay)
            self._state[key] = (attempts + 1, now + delay)
            self.requests += 1
            out.append((msg_seq, list(missing)))
        return out

    def exhausted(self, ssrc: int, msg_seq: int) -> bool:
        """Has this message used up its request budget?"""
        attempts, _ = self._state.get((ssrc, msg_seq), (0, 0.0))
        return attempts >= self.max_attempts

    def forget(self, ssrc: int, msg_seq: int) -> None:
        """Drop state for a completed/abandoned message."""
        self._state.pop((ssrc, msg_seq), None)

    def prune(self, live: Iterable[tuple[int, int]]) -> None:
        """Drop state for every message not in ``live`` (bounded memory)."""
        keep = set(live)
        for key in list(self._state):
            if key not in keep:
                del self._state[key]
