"""Collaboration event model.

"Messaging is the process of efficiently and transparently transmitting
events generated by one client's action to all other clients in the
collaboration session, and reproducing the original action on the remote
clients" (paper Sec. 2).

Each event type knows its message ``kind``, its content ``headers``
(what interests/transform rules see) and its binary body.  The three
application entities of the paper's UI — chat area, whiteboard, image
viewer — each have event types, plus membership and profile-update
events.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Optional

from ..messaging.message import SemanticMessage
from .attributes import AttributeValue

__all__ = [
    "Event",
    "ChatEvent",
    "WhiteboardEvent",
    "ImageShareAnnounce",
    "ImagePacketEvent",
    "TextShareEvent",
    "SketchShareEvent",
    "SpeechShareEvent",
    "JoinEvent",
    "LeaveEvent",
    "ProfileUpdateEvent",
    "PowerControlRequest",
    "HistoryRequest",
    "ImageRepairRequest",
    "LockRequestEvent",
    "LockReleaseEvent",
    "LockGrantEvent",
    "decode_event",
    "EventError",
]


class EventError(ValueError):
    """Raised on undecodable event bodies or unknown kinds."""


_DECODERS: dict[str, Callable[[bytes], "Event"]] = {}


def _register(cls: type["Event"]) -> type["Event"]:
    _DECODERS[cls.kind] = cls.from_body
    return cls


@dataclass(frozen=True)
class Event:
    """Base event; subclasses define ``kind`` and the body codec."""

    kind: ClassVar[str] = "event"

    def headers(self) -> dict[str, AttributeValue]:
        """Content attributes advertised with this event."""
        return {}

    def to_body(self) -> bytes:
        """Binary body; default empty."""
        return b""

    @classmethod
    def from_body(cls, body: bytes) -> "Event":
        return cls()

    def to_message(self, sender: str, selector: str) -> SemanticMessage:
        """This event as ``sender``'s semantic message to ``selector``'s audience."""
        return SemanticMessage.create(
            sender=sender,
            selector=selector,
            headers=self.headers(),
            body=self.to_body(),
            kind=self.kind,
        )


#: the fixed body layouts, compiled once.  A layout sized by a count
#: field off the wire (``f">{n}i"``) is never added, so the table stays
#: this size whatever peers send.
_STRUCTS = {fmt: struct.Struct(fmt) for fmt in (">I", ">II", ">Id", ">IIIIQi", ">d", ">B")}
_U32 = _STRUCTS[">I"]


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _unpack_str(body: bytes, pos: int) -> tuple[str, int]:
    if pos + 4 > len(body):
        raise EventError("truncated string length")
    (n,) = _U32.unpack_from(body, pos)
    pos += 4
    if pos + n > len(body):
        raise EventError("truncated string")
    raw = body[pos : pos + n]
    try:
        return raw.decode("utf-8"), pos + n
    except UnicodeDecodeError as exc:
        raise EventError("event string is not valid UTF-8") from exc


def _unpack(fmt: str, body: bytes, pos: int) -> tuple:
    """Bounds-checked ``struct.unpack_from``: every malformed body —
    truncated, or with a count field implying an absurd layout — fails
    as :class:`EventError`, never ``struct.error``/``IndexError``."""
    compiled = _STRUCTS.get(fmt)
    if compiled is None:
        try:
            compiled = struct.Struct(fmt)
        except struct.error as exc:
            raise EventError(f"unreasonable event field layout {fmt!r}") from exc
    end = pos + compiled.size
    if end > len(body):
        raise EventError(f"truncated event body: need {end} byte(s), have {len(body)}")
    return compiled.unpack_from(body, pos)


@_register
@dataclass(frozen=True)
class ChatEvent(Event):
    """A line in the chat area."""

    author: str = ""
    text: str = ""
    kind: ClassVar[str] = "chat"

    def headers(self) -> dict[str, AttributeValue]:
        return {"modality": "text", "size_bytes": len(self.text.encode("utf-8"))}

    def to_body(self) -> bytes:
        return _pack_str(self.author) + _pack_str(self.text)

    @classmethod
    def from_body(cls, body: bytes) -> "ChatEvent":
        author, pos = _unpack_str(body, 0)
        text, _ = _unpack_str(body, pos)
        return cls(author=author, text=text)


@_register
@dataclass(frozen=True)
class WhiteboardEvent(Event):
    """A whiteboard operation on a shared object.

    ``op`` ∈ {"draw", "move", "erase"}; ``points`` is a flat tuple of
    (x, y) pairs for strokes.
    """

    object_id: str = ""
    op: str = "draw"
    points: tuple[float, ...] = ()
    author: str = ""
    #: origin-side version and timestamp: every replica must arbitrate the
    #: same (version, timestamp, author) triple or replicas diverge under
    #: concurrent edits.
    version: int = 1
    timestamp: float = 0.0
    kind: ClassVar[str] = "whiteboard"

    def headers(self) -> dict[str, AttributeValue]:
        return {"modality": "vector", "object_id": self.object_id, "op": self.op}

    def to_body(self) -> bytes:
        out = _pack_str(self.object_id) + _pack_str(self.op) + _pack_str(self.author)
        out += struct.pack(">Id", self.version, self.timestamp)
        out += struct.pack(">I", len(self.points))
        out += struct.pack(f">{len(self.points)}d", *self.points) if self.points else b""
        return out

    @classmethod
    def from_body(cls, body: bytes) -> "WhiteboardEvent":
        object_id, pos = _unpack_str(body, 0)
        op, pos = _unpack_str(body, pos)
        author, pos = _unpack_str(body, pos)
        version, timestamp = _unpack(">Id", body, pos)
        pos += struct.calcsize(">Id")
        (n,) = _unpack(">I", body, pos)
        pos += 4
        points = _unpack(f">{n}d", body, pos) if n else ()
        return cls(
            object_id=object_id,
            op=op,
            points=tuple(points),
            author=author,
            version=version,
            timestamp=timestamp,
        )


@_register
@dataclass(frozen=True)
class ImageShareAnnounce(Event):
    """Announces a progressive image share: metadata before the packets.

    Carries the verbal description in-band (the paper's "text description
    of the image which is included in the image meta-data") so text-mode
    clients are served by the announce alone.
    """

    image_id: str = ""
    height: int = 0
    width: int = 0
    channels: int = 1
    n_packets: int = 16
    total_bits: int = 0
    description: str = ""
    levels: int = 5
    t0_exps: tuple[int, ...] = ()
    kind: ClassVar[str] = "image-share"

    def headers(self) -> dict[str, AttributeValue]:
        return {
            "modality": "image",
            "image_id": self.image_id,
            "n_packets": self.n_packets,
            "size_bits": self.total_bits,
        }

    def to_body(self) -> bytes:
        out = (
            _pack_str(self.image_id)
            + struct.pack(
                ">IIIIQi",
                self.height,
                self.width,
                self.channels,
                self.n_packets,
                self.total_bits,
                self.levels,
            )
            + _pack_str(self.description)
        )
        out += struct.pack(">I", len(self.t0_exps))
        for e in self.t0_exps:
            out += struct.pack(">i", e)
        return out

    @classmethod
    def from_body(cls, body: bytes) -> "ImageShareAnnounce":
        image_id, pos = _unpack_str(body, 0)
        h, w, c, n, bits, levels = _unpack(">IIIIQi", body, pos)
        pos += struct.calcsize(">IIIIQi")
        description, pos = _unpack_str(body, pos)
        (nexp,) = _unpack(">I", body, pos)
        pos += 4
        exps = _unpack(f">{nexp}i", body, pos) if nexp else ()
        return cls(image_id, h, w, c, n, bits, description, levels, tuple(exps))


@_register
@dataclass(frozen=True)
class ImagePacketEvent(Event):
    """One progressive-image packet (see media.progressive)."""

    image_id: str = ""
    packet_index: int = 0
    packet_total: int = 16
    payload: bytes = b""
    kind: ClassVar[str] = "image-packet"

    def headers(self) -> dict[str, AttributeValue]:
        return {
            "modality": "image",
            "image_id": self.image_id,
            "packet_index": self.packet_index,
        }

    def to_body(self) -> bytes:
        return (
            _pack_str(self.image_id)
            + struct.pack(">II", self.packet_index, self.packet_total)
            + self.payload
        )

    @classmethod
    def from_body(cls, body: bytes) -> "ImagePacketEvent":
        image_id, pos = _unpack_str(body, 0)
        idx, total = _unpack(">II", body, pos)
        pos += 8
        return cls(image_id, idx, total, body[pos:])


@_register
@dataclass(frozen=True)
class TextShareEvent(Event):
    """Text-modality rendition of shared content (e.g. image description)."""

    ref_id: str = ""
    text: str = ""
    kind: ClassVar[str] = "text-share"

    def headers(self) -> dict[str, AttributeValue]:
        return {"modality": "text", "ref_id": self.ref_id}

    def to_body(self) -> bytes:
        return _pack_str(self.ref_id) + _pack_str(self.text)

    @classmethod
    def from_body(cls, body: bytes) -> "TextShareEvent":
        ref_id, pos = _unpack_str(body, 0)
        text, _ = _unpack_str(body, pos)
        return cls(ref_id=ref_id, text=text)


@_register
@dataclass(frozen=True)
class SketchShareEvent(Event):
    """Sketch-modality rendition: the ~2000×-smaller base image."""

    ref_id: str = ""
    sketch_h: int = 0
    sketch_w: int = 0
    encoded: bytes = b""
    kind: ClassVar[str] = "sketch-share"

    def headers(self) -> dict[str, AttributeValue]:
        return {"modality": "sketch", "ref_id": self.ref_id, "size_bytes": len(self.encoded)}

    def to_body(self) -> bytes:
        return _pack_str(self.ref_id) + struct.pack(">II", self.sketch_h, self.sketch_w) + self.encoded

    @classmethod
    def from_body(cls, body: bytes) -> "SketchShareEvent":
        ref_id, pos = _unpack_str(body, 0)
        h, w = _unpack(">II", body, pos)
        return cls(ref_id, h, w, body[pos + 8 :])


@_register
@dataclass(frozen=True)
class SpeechShareEvent(Event):
    """Speech-modality rendition (8-bit quantized synthetic voice)."""

    ref_id: str = ""
    sample_rate: int = 8000
    samples_u8: bytes = b""
    kind: ClassVar[str] = "speech-share"

    def headers(self) -> dict[str, AttributeValue]:
        return {"modality": "speech", "ref_id": self.ref_id, "size_bytes": len(self.samples_u8)}

    def to_body(self) -> bytes:
        return _pack_str(self.ref_id) + struct.pack(">I", self.sample_rate) + self.samples_u8

    @classmethod
    def from_body(cls, body: bytes) -> "SpeechShareEvent":
        ref_id, pos = _unpack_str(body, 0)
        (rate,) = _unpack(">I", body, pos)
        return cls(ref_id, rate, body[pos + 4 :])


@_register
@dataclass(frozen=True)
class JoinEvent(Event):
    """A client announces itself to the session."""

    client_id: str = ""
    objective: str = ""
    kind: ClassVar[str] = "join"

    def headers(self) -> dict[str, AttributeValue]:
        return {"client_id": self.client_id, "objective": self.objective}

    def to_body(self) -> bytes:
        return _pack_str(self.client_id) + _pack_str(self.objective)

    @classmethod
    def from_body(cls, body: bytes) -> "JoinEvent":
        cid, pos = _unpack_str(body, 0)
        obj, _ = _unpack_str(body, pos)
        return cls(client_id=cid, objective=obj)


@_register
@dataclass(frozen=True)
class LeaveEvent(Event):
    """A client leaves the session."""

    client_id: str = ""
    kind: ClassVar[str] = "leave"

    def headers(self) -> dict[str, AttributeValue]:
        return {"client_id": self.client_id}

    def to_body(self) -> bytes:
        return _pack_str(self.client_id)

    @classmethod
    def from_body(cls, body: bytes) -> "LeaveEvent":
        cid, _ = _unpack_str(body, 0)
        return cls(client_id=cid)


@_register
@dataclass(frozen=True)
class ProfileUpdateEvent(Event):
    """A client advertises a (partial) profile change — e.g. User B
    "decides to go into text-mode", which peers may use to pre-adapt."""

    client_id: str = ""
    changes: tuple[tuple[str, str], ...] = ()
    kind: ClassVar[str] = "profile-update"

    def headers(self) -> dict[str, AttributeValue]:
        return {"client_id": self.client_id}

    def to_body(self) -> bytes:
        out = _pack_str(self.client_id) + struct.pack(">I", len(self.changes))
        for k, v in self.changes:
            out += _pack_str(k) + _pack_str(v)
        return out

    @classmethod
    def from_body(cls, body: bytes) -> "ProfileUpdateEvent":
        cid, pos = _unpack_str(body, 0)
        (n,) = _unpack(">I", body, pos)
        pos += 4
        changes = []
        for _ in range(n):
            k, pos = _unpack_str(body, pos)
            v, pos = _unpack_str(body, pos)
            changes.append((k, v))
        return cls(client_id=cid, changes=tuple(changes))


@_register
@dataclass(frozen=True)
class PowerControlRequest(Event):
    """BS → wireless client: transmit at a new power level.

    "If the SIR threshold for image data is at 4db ... while the current
    target SIR achieved is about 7db, then BS requests the client to
    transmit at a lower power, which also helps to conserve battery power"
    (paper Sec. 6.3).
    """

    client_id: str = ""
    new_power: float = 1.0
    reason: str = ""
    kind: ClassVar[str] = "power-control"

    def headers(self) -> dict[str, AttributeValue]:
        return {"client_id": self.client_id, "new_power": self.new_power}

    def to_body(self) -> bytes:
        return _pack_str(self.client_id) + struct.pack(">d", self.new_power) + _pack_str(self.reason)

    @classmethod
    def from_body(cls, body: bytes) -> "PowerControlRequest":
        cid, pos = _unpack_str(body, 0)
        (power,) = _unpack(">d", body, pos)
        pos += 8
        reason, _ = _unpack_str(body, pos)
        return cls(client_id=cid, new_power=power, reason=reason)


@_register
@dataclass(frozen=True)
class HistoryRequest(Event):
    """Late joiner → archivist: replay the session since ``since``.

    "Sessions can be archived to provide late clients with session
    history" (paper Sec. 3).  ``kinds`` optionally narrows the replay
    (empty tuple = everything).
    """

    client_id: str = ""
    since: float = 0.0
    kinds: tuple[str, ...] = ()
    kind: ClassVar[str] = "history-request"

    def headers(self) -> dict[str, AttributeValue]:
        return {"client_id": self.client_id, "since": self.since}

    def to_body(self) -> bytes:
        out = _pack_str(self.client_id) + struct.pack(">d", self.since)
        out += struct.pack(">I", len(self.kinds))
        for k in self.kinds:
            out += _pack_str(k)
        return out

    @classmethod
    def from_body(cls, body: bytes) -> "HistoryRequest":
        cid, pos = _unpack_str(body, 0)
        (since,) = _unpack(">d", body, pos)
        pos += 8
        (n,) = _unpack(">I", body, pos)
        pos += 4
        kinds = []
        for _ in range(n):
            k, pos = _unpack_str(body, pos)
            kinds.append(k)
        return cls(client_id=cid, since=since, kinds=tuple(kinds))


@_register
@dataclass(frozen=True)
class ImageRepairRequest(Event):
    """Receiver → sharer: re-send specific progressive-image packets.

    Issued when the RTP layer (or the assembly's prefix gap) shows a
    hole that blocks reconstruction beyond a point.
    """

    client_id: str = ""
    image_id: str = ""
    packet_indices: tuple[int, ...] = ()
    kind: ClassVar[str] = "image-repair"

    def headers(self) -> dict[str, AttributeValue]:
        return {"client_id": self.client_id, "image_id": self.image_id}

    def to_body(self) -> bytes:
        out = _pack_str(self.client_id) + _pack_str(self.image_id)
        out += struct.pack(">I", len(self.packet_indices))
        for i in self.packet_indices:
            out += struct.pack(">I", i)
        return out

    @classmethod
    def from_body(cls, body: bytes) -> "ImageRepairRequest":
        cid, pos = _unpack_str(body, 0)
        image_id, pos = _unpack_str(body, pos)
        (n,) = _unpack(">I", body, pos)
        pos += 4
        indices = _unpack(f">{n}I", body, pos) if n else ()
        return cls(client_id=cid, image_id=image_id, packet_indices=tuple(indices))


@_register
@dataclass(frozen=True)
class LockRequestEvent(Event):
    """Client → coordinator: request exclusive access to a shared object."""

    client_id: str = ""
    object_id: str = ""
    kind: ClassVar[str] = "lock-request"

    def headers(self) -> dict[str, AttributeValue]:
        return {"client_id": self.client_id, "object_id": self.object_id}

    def to_body(self) -> bytes:
        return _pack_str(self.client_id) + _pack_str(self.object_id)

    @classmethod
    def from_body(cls, body: bytes) -> "LockRequestEvent":
        cid, pos = _unpack_str(body, 0)
        oid, _ = _unpack_str(body, pos)
        return cls(client_id=cid, object_id=oid)


@_register
@dataclass(frozen=True)
class LockReleaseEvent(Event):
    """Client → coordinator: release a held object lock."""

    client_id: str = ""
    object_id: str = ""
    kind: ClassVar[str] = "lock-release"

    def headers(self) -> dict[str, AttributeValue]:
        return {"client_id": self.client_id, "object_id": self.object_id}

    def to_body(self) -> bytes:
        return _pack_str(self.client_id) + _pack_str(self.object_id)

    @classmethod
    def from_body(cls, body: bytes) -> "LockReleaseEvent":
        cid, pos = _unpack_str(body, 0)
        oid, _ = _unpack_str(body, pos)
        return cls(client_id=cid, object_id=oid)


@_register
@dataclass(frozen=True)
class LockGrantEvent(Event):
    """Coordinator → session: the named client now owns the object lock.

    Multicast so every replica can render "being edited by X" state and
    queued requesters know their turn arrived.
    """

    client_id: str = ""
    object_id: str = ""
    granted: bool = True
    kind: ClassVar[str] = "lock-grant"

    def headers(self) -> dict[str, AttributeValue]:
        return {
            "client_id": self.client_id,
            "object_id": self.object_id,
            "granted": self.granted,
        }

    def to_body(self) -> bytes:
        return (
            _pack_str(self.client_id)
            + _pack_str(self.object_id)
            + struct.pack(">B", 1 if self.granted else 0)
        )

    @classmethod
    def from_body(cls, body: bytes) -> "LockGrantEvent":
        cid, pos = _unpack_str(body, 0)
        oid, pos = _unpack_str(body, pos)
        (granted_byte,) = _unpack(">B", body, pos)
        return cls(client_id=cid, object_id=oid, granted=granted_byte != 0)


def decode_event(kind: str, body: bytes) -> Event:
    """Reconstruct an event from a message's (kind, body)."""
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise EventError(f"unknown event kind {kind!r}")
    return decoder(body)
