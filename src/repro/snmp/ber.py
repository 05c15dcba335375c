"""BER (Basic Encoding Rules) codec for the SNMP subset.

The paper's network-state interface "uses the IP address of the network
element, the community string, and the object identifier (OID) of the
parameters of interest ... to directly query the SNMP MIB".  pysnmp is not
available offline, so this module implements the ASN.1 BER subset that
SNMPv1/v2c actually needs, bit-compatible with RFC 1157 / RFC 3416
encodings for the types used:

==============================  =====  =============================
type                            tag    Python surface
==============================  =====  =============================
INTEGER                         0x02   :class:`Integer`
OCTET STRING                    0x04   :class:`OctetString`
NULL                            0x05   :class:`Null`
OBJECT IDENTIFIER               0x06   :class:`ObjectIdentifierValue`
SEQUENCE                        0x30   :class:`Sequence`
IpAddress                       0x40   :class:`IpAddress`
Counter32                       0x41   :class:`Counter32`
Gauge32                         0x42   :class:`Gauge32`
TimeTicks                       0x43   :class:`TimeTicks`
Counter64                       0x46   :class:`Counter64`
noSuchObject / noSuchInstance   0x80 / 0x81   (v2c varbind exceptions)
endOfMibView                    0x82
GetRequest..SNMPv2-Trap PDUs    0xA0.. constructed, context class
==============================  =====  =============================

Encoding uses definite-length form only (SNMP never uses indefinite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .._recent import Recent

__all__ = [
    "BerError",
    "Integer",
    "OctetString",
    "Null",
    "ObjectIdentifierValue",
    "IpAddress",
    "Counter32",
    "Gauge32",
    "TimeTicks",
    "Counter64",
    "NoSuchObject",
    "NoSuchInstance",
    "EndOfMibView",
    "Sequence",
    "TaggedPdu",
    "encode",
    "decode",
    "encode_length",
    "decode_length",
    "encode_oid_body",
    "decode_oid_body",
]

# Tag constants ---------------------------------------------------------
TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_OID = 0x06
TAG_SEQUENCE = 0x30
TAG_IPADDRESS = 0x40
TAG_COUNTER32 = 0x41
TAG_GAUGE32 = 0x42
TAG_TIMETICKS = 0x43
TAG_COUNTER64 = 0x46
TAG_NO_SUCH_OBJECT = 0x80
TAG_NO_SUCH_INSTANCE = 0x81
TAG_END_OF_MIB_VIEW = 0x82
# PDU tags are 0xA0 | pdu-kind; handled by TaggedPdu.


class BerError(ValueError):
    """Raised on malformed BER input or unencodable values."""


# ----------------------------------------------------------------------
# length octets
# ----------------------------------------------------------------------
def encode_length(n: int) -> bytes:
    """Encode a definite length (short or long form)."""
    if n < 0:
        raise BerError(f"negative length {n}")
    if n < 0x80:
        return bytes([n])
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    if len(body) > 126:
        raise BerError("length too large")
    return bytes([0x80 | len(body)]) + body

def decode_length(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a length at ``offset``; returns ``(length, next_offset)``."""
    if offset >= len(data):
        raise BerError("truncated length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    nbytes = first & 0x7F
    if nbytes == 0:
        raise BerError("indefinite length not allowed in SNMP")
    if offset + nbytes > len(data):
        raise BerError("truncated long-form length")
    return int.from_bytes(data[offset : offset + nbytes], "big"), offset + nbytes


# ----------------------------------------------------------------------
# value classes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Integer:
    """ASN.1 INTEGER (signed, arbitrary width in SNMP's 32-bit envelope)."""

    value: int
    tag = TAG_INTEGER

    def encode_body(self) -> bytes:
        return _encode_signed(self.value)


def _encode_signed(v: int) -> bytes:
    # the fewest octets whose two's complement holds v: its magnitude
    # bits (those of ~v when negative) plus a sign bit
    return v.to_bytes((v if v >= 0 else ~v).bit_length() // 8 + 1, "big", signed=True)


def _decode_signed(body: bytes) -> int:
    if not body:
        raise BerError("empty INTEGER body")
    return int.from_bytes(body, "big", signed=True)


@dataclass(frozen=True)
class _Unsigned32:
    """Base for Counter32 / Gauge32 / TimeTicks (unsigned 32-bit)."""

    value: int
    tag = -1  # overridden

    def __post_init__(self) -> None:
        if not (0 <= self.value < 2**32):
            raise BerError(f"{type(self).__name__} out of range: {self.value}")

    def encode_body(self) -> bytes:
        # encoded like a non-negative INTEGER (may need a 0x00 pad octet)
        return _encode_signed(self.value)


@dataclass(frozen=True)
class Counter32(_Unsigned32):
    """SNMP Counter32: monotone wrap-around counter."""

    tag = TAG_COUNTER32


@dataclass(frozen=True)
class Gauge32(_Unsigned32):
    """SNMP Gauge32: non-wrapping instantaneous value (loads, rates)."""

    tag = TAG_GAUGE32


@dataclass(frozen=True)
class TimeTicks(_Unsigned32):
    """SNMP TimeTicks: hundredths of a second since agent start."""

    tag = TAG_TIMETICKS


@dataclass(frozen=True)
class Counter64:
    """SNMPv2 Counter64."""

    value: int
    tag = TAG_COUNTER64

    def __post_init__(self) -> None:
        if not (0 <= self.value < 2**64):
            raise BerError(f"Counter64 out of range: {self.value}")

    def encode_body(self) -> bytes:
        return _encode_signed(self.value)


@dataclass(frozen=True)
class OctetString:
    """ASN.1 OCTET STRING; community strings and textual MIB values."""

    value: bytes
    tag = TAG_OCTET_STRING

    def encode_body(self) -> bytes:
        return bytes(self.value)

    def text(self) -> str:
        """Decode the octets as UTF-8 text (DisplayString convention)."""
        return self.value.decode("utf-8")


@dataclass(frozen=True)
class Null:
    """ASN.1 NULL: the value slot of varbinds in GET requests."""

    tag = TAG_NULL

    def encode_body(self) -> bytes:
        return b""


@dataclass(frozen=True)
class IpAddress:
    """SNMP IpAddress (4 octets)."""

    value: bytes
    tag = TAG_IPADDRESS

    def __post_init__(self) -> None:
        if len(self.value) != 4:
            raise BerError("IpAddress must be exactly 4 octets")

    def encode_body(self) -> bytes:
        return bytes(self.value)

    @classmethod
    def from_string(cls, dotted: str) -> "IpAddress":
        parts = [int(p) for p in dotted.split(".")]
        if len(parts) != 4 or any(not (0 <= p <= 255) for p in parts):
            raise BerError(f"bad IPv4 address {dotted!r}")
        return cls(bytes(parts))

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.value)


@dataclass(frozen=True)
class _VarBindException:
    """v2c varbind exception markers (encoded like NULL with context tag)."""

    tag = -1

    def encode_body(self) -> bytes:
        return b""


@dataclass(frozen=True)
class NoSuchObject(_VarBindException):
    tag = TAG_NO_SUCH_OBJECT


@dataclass(frozen=True)
class NoSuchInstance(_VarBindException):
    tag = TAG_NO_SUCH_INSTANCE


@dataclass(frozen=True)
class EndOfMibView(_VarBindException):
    tag = TAG_END_OF_MIB_VIEW


# ----------------------------------------------------------------------
# OID body encoding (shared with oids.py)
# ----------------------------------------------------------------------
#: OID bodies :func:`encode_oid_body` remembers (a :class:`~repro._recent.Recent`
#: table): a poll names the same few OIDs every time
_OID_MEMO_SIZE = 256
_oid_memo: Recent[bytes] = Recent(_OID_MEMO_SIZE)


def encode_oid_body(arcs: tuple[int, ...]) -> bytes:
    """Encode OID arcs per X.690 §8.19.

    The first two arcs X.Y are packed into one subidentifier, 40*X+Y,
    written in base 128 like every other arc (§8.19.4): under X = 2 it
    can exceed 127 (``2.999`` is ``88 37``).
    """
    memo = type(arcs) is tuple
    if memo:
        body = _oid_memo.get(arcs)
        if body is not None:
            return body
    if len(arcs) < 2:
        raise BerError(f"OID needs >= 2 arcs, got {arcs!r}")
    if not 0 <= arcs[0] <= 2 or arcs[1] < 0 or (arcs[0] < 2 and arcs[1] > 39):
        raise BerError(f"invalid leading OID arcs {arcs[:2]!r}")
    out = bytearray()
    for arc in (arcs[0] * 40 + arcs[1], *arcs[2:]):
        if arc < 0x80:
            if arc < 0:
                raise BerError(f"negative OID arc {arc}")
            out.append(arc)
            continue
        for shift in range((arc.bit_length() - 1) // 7 * 7, 0, -7):
            out.append(0x80 | (arc >> shift) & 0x7F)
        out.append(arc & 0x7F)
    body = bytes(out)
    if memo:
        _oid_memo.put(arcs, body)
    return body


def decode_oid_body(body: bytes) -> tuple[int, ...]:
    """Inverse of :func:`encode_oid_body`."""
    if not body:
        raise BerError("empty OID body")
    if body[-1] & 0x80:
        raise BerError("truncated multi-byte OID arc")
    subids: Union[bytes, list[int]]
    if body.isascii():  # every subidentifier is one octet
        subids = body
    else:
        subids = []
        acc = 0
        for octet in body:
            if octet & 0x80:
                acc = (acc | octet & 0x7F) << 7
            else:
                subids.append(acc | octet)
                acc = 0
    first = subids[0]
    x = min(first // 40, 2)
    return (x, first - 40 * x, *subids[1:])


@dataclass(frozen=True)
class ObjectIdentifierValue:
    """ASN.1 OBJECT IDENTIFIER as a tuple of arcs."""

    arcs: tuple[int, ...]
    tag = TAG_OID

    def encode_body(self) -> bytes:
        return encode_oid_body(self.arcs)

    def __str__(self) -> str:
        return ".".join(str(a) for a in self.arcs)


# ----------------------------------------------------------------------
# constructed types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sequence:
    """ASN.1 SEQUENCE of BER values (universal constructed)."""

    items: tuple
    tag = TAG_SEQUENCE

    def encode_body(self) -> bytes:
        return b"".join([_encode(i) for i in self.items])


@dataclass(frozen=True)
class TaggedPdu:
    """A context-class constructed value: SNMP PDUs (tag = 0xA0 | kind)."""

    tag_value: int
    items: tuple

    @property
    def tag(self) -> int:
        return self.tag_value

    def encode_body(self) -> bytes:
        return b"".join([_encode(i) for i in self.items])


BerValue = Union[
    Integer,
    OctetString,
    Null,
    ObjectIdentifierValue,
    IpAddress,
    Counter32,
    Gauge32,
    TimeTicks,
    Counter64,
    NoSuchObject,
    NoSuchInstance,
    EndOfMibView,
    Sequence,
    TaggedPdu,
]


# ----------------------------------------------------------------------
# top-level encode / decode
# ----------------------------------------------------------------------
def encode(value: BerValue) -> bytes:
    """Serialize one BER value (TLV)."""
    return _encode(value)


def _encode(value: BerValue) -> bytes:
    """:func:`encode` without the public entry, so nested TLVs do not re-enter it."""
    body = value.encode_body()
    n = len(body)
    if n < 0x80:
        return bytes((value.tag, n)) + body
    return bytes((value.tag,)) + encode_length(n) + body


_PRIMITIVE_DECODERS = {
    TAG_INTEGER: lambda b: Integer(_decode_signed(b)),
    TAG_OCTET_STRING: lambda b: OctetString(bytes(b)),
    TAG_NULL: lambda b: Null(),
    TAG_OID: lambda b: ObjectIdentifierValue(decode_oid_body(b)),
    TAG_IPADDRESS: lambda b: IpAddress(bytes(b)),
    TAG_COUNTER32: lambda b: Counter32(_decode_unsigned(b, 32)),
    TAG_GAUGE32: lambda b: Gauge32(_decode_unsigned(b, 32)),
    TAG_TIMETICKS: lambda b: TimeTicks(_decode_unsigned(b, 32)),
    TAG_COUNTER64: lambda b: Counter64(_decode_unsigned(b, 64)),
    TAG_NO_SUCH_OBJECT: lambda b: NoSuchObject(),
    TAG_NO_SUCH_INSTANCE: lambda b: NoSuchInstance(),
    TAG_END_OF_MIB_VIEW: lambda b: EndOfMibView(),
}


def _decode_unsigned(body: bytes, bits: int) -> int:
    v = _decode_signed(body)
    if v < 0:
        # RFC-violating encoders sometimes emit negative; normalize mod 2^bits
        v += 1 << bits
    if v >= 1 << bits:
        raise BerError(f"unsigned{bits} out of range: {v}")
    return v


#: SNMP PDUs nest a handful of levels; a kilobyte of 0xA0 tag bytes would
#: otherwise recurse thousands of frames deep and die with RecursionError.
_MAX_NESTING = 32


def decode(data: bytes, offset: int = 0, *, _depth: int = 0) -> tuple[BerValue, int]:
    """Decode one TLV at ``offset``; returns ``(value, next_offset)``."""
    return _decode(data, offset, len(data), _depth)


def _decode(data: bytes, offset: int, limit: int, depth: int) -> tuple[BerValue, int]:
    """The TLV at ``offset`` of ``data[:limit]``.

    A constructed TLV's items are decoded in place, each bounded by the
    end of the body that holds it, so no body is copied to be parsed.
    """
    if depth > _MAX_NESTING:
        raise BerError(f"constructed TLVs nested deeper than {_MAX_NESTING}")
    if offset >= limit:
        raise BerError("truncated TLV: no tag")
    tag = data[offset]  # offset < limit <= len(data)
    pos = offset + 1
    if pos >= limit:
        raise BerError("truncated length")
    length = data[pos]  # pos < limit <= len(data)
    if length < 0x80:
        pos += 1
    else:  # long form; length octets running past limit fail the check below
        length, pos = decode_length(data, pos)
    end = pos + length
    if end > limit:
        raise BerError(f"truncated TLV body: need {end - offset} octet(s), have {limit - offset}")
    if tag == TAG_SEQUENCE or (tag & 0xE0) == 0xA0:  # SEQUENCE, or a PDU
        items = []
        depth += 1
        while pos < end:
            item, pos = _decode(data, pos, end, depth)
            items.append(item)
        if tag == TAG_SEQUENCE:
            return Sequence(tuple(items)), end
        return TaggedPdu(tag, tuple(items)), end
    decoder = _PRIMITIVE_DECODERS.get(tag)
    if decoder is None:
        raise BerError(f"unsupported BER tag 0x{tag:02X}")
    return decoder(data[pos:end]), end
