"""Slow reference for the receive path: RTP reassembly and wire decode.

The code ``rtp.py`` / ``serialization.py`` ran before each received
datagram became one flat pass, kept verbatim as the test oracle:

* :class:`ReferenceRtpPacket` — ``RtpPacket`` with its ``decode``: the
  frozen packet every fragment was parsed into;
* :class:`ReferenceRtpReassembler` — ``RtpReassembler`` as it was: one
  ``RtpPacket.decode`` and one ``_PartialMessage`` + ``b"".join`` per
  fragment, single-fragment messages included;
* :func:`reference_decode_message` — ``decode_message`` as one
  ``(value, pos)``-returning helper call per field, with the helpers it
  called (``_read_varint``, ``_read_str``, ``_read_value``).

The header layout, window and source bounds and error types are
imported from the module under test, so a fast and a reference receiver
differ in nothing but the path being compared.  The receiver report
(``RtcpReport`` and the per-source counters behind it), which ``rtp.py``
no longer has, is kept here with the code that reads it.

The reference keeps the parent's window rule: a forward jump of more
than the window is final, and every later fragment from behind it is
dropped uncounted.  ``test_wire_reference.py`` compares against it only
on traffic up to the first such fragment.
"""

import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.attributes import AttributeValue
from repro.core.matching_engine import compile_selector
from repro.core.selectors import SelectorError
from repro.messaging.message import MessageId, SemanticMessage
from repro.messaging.rtp import (
    _HEADER,
    HEADER_SIZE,
    MAX_TRACKED_SOURCES,
    REORDER_WINDOW,
    RtpError,
)
from repro.messaging.serialization import _MAGIC, _VERSION, WireError


# ----------------------------------------------------------------------
# rtp.py
# ----------------------------------------------------------------------
_ZERO_STAT = {"received": 0, "highest_seq": -1, "completed": 0, "abandoned": 0, "newest_msg": -1}


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


@dataclass(frozen=True)
class ReferenceRtpPacket:
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
    def decode(cls, data: bytes) -> "ReferenceRtpPacket":
        if len(data) < HEADER_SIZE:
            raise RtpError(f"fragment shorter than header: {len(data)}")
        ssrc, msg_seq, frag_index, frag_count, seq = _HEADER.unpack_from(data)
        if frag_count == 0 or frag_index >= frag_count:
            raise RtpError(f"bad fragment indices {frag_index}/{frag_count}")
        return cls(ssrc, msg_seq, frag_index, frag_count, seq, data[HEADER_SIZE:])


@dataclass
class _PartialMessage:
    frag_count: int
    fragments: dict[int, bytes] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.fragments) == self.frag_count

    def assemble(self) -> bytes:
        return b"".join(self.fragments[i] for i in range(self.frag_count))


class ReferenceRtpReassembler:
    """Receiver side: fragments → complete payloads, per source (ssrc)."""

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
        pkt = ReferenceRtpPacket.decode(data)
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
        """How many messages were abandoned since the previous call."""
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


# ----------------------------------------------------------------------
# serialization.py
# ----------------------------------------------------------------------
def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise WireError("truncated varint")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not (b & 0x80):
            return result, pos
        shift += 7
        if shift > 63:
            raise WireError("varint too long")


def _unzigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def _read_str(data: bytes, pos: int) -> tuple[str, int]:
    n, pos = _read_varint(data, pos)
    if pos + n > len(data):
        raise WireError("truncated string")
    raw = data[pos : pos + n]
    try:
        return raw.decode("utf-8"), pos + n
    except UnicodeDecodeError as exc:
        raise WireError("wire string is not valid UTF-8") from exc


def _read_value(data: bytes, pos: int, allow_list: bool = True) -> tuple[Any, int]:
    if pos >= len(data):
        raise WireError("truncated value tag")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"b":
        if pos >= len(data):
            raise WireError("truncated bool")
        return data[pos] != 0, pos + 1
    if tag == b"i":
        v, pos = _read_varint(data, pos)
        return _unzigzag(v), pos
    if tag == b"f":
        if pos + 8 > len(data):
            raise WireError("truncated float")
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == b"s":
        return _read_str(data, pos)
    if tag == b"l" and allow_list:
        n, pos = _read_varint(data, pos)
        items = []
        for _ in range(n):
            item, pos = _read_value(data, pos, allow_list=False)
            items.append(item)
        return items, pos
    raise WireError(f"unknown value tag {tag!r}")


def reference_decode_message(data: bytes) -> SemanticMessage:
    """Inverse of :func:`encode_message`."""
    if data[:2] != _MAGIC:
        raise WireError(f"bad magic {data[:2]!r}")
    if len(data) < 3 or data[2] != _VERSION:
        raise WireError("unsupported wire version")
    pos = 3
    id_sender, pos = _read_str(data, pos)
    seq, pos = _read_varint(data, pos)
    kind, pos = _read_str(data, pos)
    sender, pos = _read_str(data, pos)
    selector_text, pos = _read_str(data, pos)
    n_headers, pos = _read_varint(data, pos)
    headers: dict[str, AttributeValue] = {}
    for _ in range(n_headers):
        name, pos = _read_str(data, pos)
        value, pos = _read_value(data, pos)
        headers[name] = value
    body_len, pos = _read_varint(data, pos)
    if pos + body_len > len(data):
        raise WireError("truncated body")
    body = data[pos : pos + body_len]
    try:
        selector = compile_selector(selector_text)
    except SelectorError as exc:
        raise WireError(f"message carries an unparseable selector: {exc}") from exc
    return SemanticMessage(
        msg_id=MessageId(id_sender, seq),
        selector=selector,
        headers=headers,
        body=body,
        kind=kind,
        sender=sender,
    )
