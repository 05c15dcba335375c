"""Slow reference for the BER codec: one frozen value per TLV, one re-slice per nesting.

The ``encode`` / ``decode`` that ``ber.py`` ran before a TLV became one
flat pass, kept verbatim as the test oracle (the X.690 §8.19.4 fix to
the first OID subidentifier is applied: the reference is taken after it):

* :func:`reference_encode` — recurses through each value's
  ``encode_body`` and a length-octets call per TLV;
* :func:`reference_decode` — re-slices every constructed body and
  recurses into the slice, with one lambda per primitive tag.

One adaptation, forced: the value classes' ``encode_body`` methods call
back into ``ber.py`` (``_encode_signed``, ``encode_oid_body``,
``encode``), so :func:`_reference_body` runs those methods as they were
with the calls routed to this module.  The value classes themselves are
the module's, so results compare with ``==``.
"""

from typing import Iterable

from repro.snmp.ber import (
    TAG_COUNTER32,
    TAG_COUNTER64,
    TAG_END_OF_MIB_VIEW,
    TAG_GAUGE32,
    TAG_INTEGER,
    TAG_IPADDRESS,
    TAG_NO_SUCH_INSTANCE,
    TAG_NO_SUCH_OBJECT,
    TAG_NULL,
    TAG_OCTET_STRING,
    TAG_OID,
    TAG_SEQUENCE,
    TAG_TIMETICKS,
    BerError,
    BerValue,
    Counter32,
    Counter64,
    EndOfMibView,
    Gauge32,
    Integer,
    IpAddress,
    NoSuchInstance,
    NoSuchObject,
    Null,
    ObjectIdentifierValue,
    OctetString,
    Sequence,
    TaggedPdu,
    TimeTicks,
    _Unsigned32,
)

_MAX_NESTING = 32


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


def _encode_signed(v: int) -> bytes:
    if v == 0:
        return b"\x00"
    length = (v.bit_length() + 8) // 8  # +1 sign bit, rounded up
    body = v.to_bytes(length, "big", signed=True)
    # strip redundant leading octets (0x00 before <0x80, 0xFF before >=0x80)
    while len(body) > 1 and (
        (body[0] == 0x00 and body[1] < 0x80) or (body[0] == 0xFF and body[1] >= 0x80)
    ):
        body = body[1:]
    return body


def _decode_signed(body: bytes) -> int:
    if not body:
        raise BerError("empty INTEGER body")
    return int.from_bytes(body, "big", signed=True)


def _decode_unsigned(body: bytes, bits: int) -> int:
    v = _decode_signed(body)
    if v < 0:
        # RFC-violating encoders sometimes emit negative; normalize mod 2^bits
        v += 1 << bits
    if v >= 1 << bits:
        raise BerError(f"unsigned{bits} out of range: {v}")
    return v


def encode_oid_body(arcs: tuple[int, ...]) -> bytes:
    """Encode OID arcs per X.690 §8.19."""
    if len(arcs) < 2:
        raise BerError(f"OID needs >= 2 arcs, got {arcs!r}")
    if not 0 <= arcs[0] <= 2 or arcs[1] < 0 or (arcs[0] < 2 and arcs[1] > 39):
        raise BerError(f"invalid leading OID arcs {arcs[:2]!r}")
    out = bytearray()
    for arc in (arcs[0] * 40 + arcs[1], *arcs[2:]):
        if arc < 0:
            raise BerError(f"negative OID arc {arc}")
        chunk = bytearray([arc & 0x7F])
        arc >>= 7
        while arc:
            chunk.append(0x80 | (arc & 0x7F))
            arc >>= 7
        out.extend(reversed(chunk))
    return bytes(out)


def decode_oid_body(body: bytes) -> tuple[int, ...]:
    """Inverse of :func:`encode_oid_body`."""
    if not body:
        raise BerError("empty OID body")
    subids = []
    acc = 0
    in_multibyte = False
    for octet in body:
        acc = (acc << 7) | (octet & 0x7F)
        if octet & 0x80:
            in_multibyte = True
            continue
        subids.append(acc)
        acc = 0
        in_multibyte = False
    if in_multibyte:
        raise BerError("truncated multi-byte OID arc")
    first = subids[0]
    x = min(first // 40, 2)
    return (x, first - 40 * x, *subids[1:])


def _reference_body(value) -> bytes:
    """``value.encode_body()``, with its calls into ``ber.py`` routed here."""
    if isinstance(value, (Sequence, TaggedPdu)):
        return b"".join(reference_encode(i) for i in value.items)
    if isinstance(value, ObjectIdentifierValue):
        return encode_oid_body(value.arcs)
    if isinstance(value, (Integer, _Unsigned32, Counter64)):
        return _encode_signed(value.value)
    return value.encode_body()  # OctetString, IpAddress, Null, varbind exceptions


def reference_encode(value: BerValue) -> bytes:
    """Serialize one BER value (TLV)."""
    body = _reference_body(value)
    return bytes([value.tag]) + encode_length(len(body)) + body


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


def reference_decode(data: bytes, offset: int = 0, *, _depth: int = 0) -> tuple[BerValue, int]:
    """Decode one TLV at ``offset``; returns ``(value, next_offset)``."""
    if _depth > _MAX_NESTING:
        raise BerError(f"constructed TLVs nested deeper than {_MAX_NESTING}")
    if offset >= len(data):
        raise BerError("truncated TLV: no tag")
    tag = data[offset]
    length, body_start = decode_length(data, offset + 1)
    body_end = body_start + length
    if body_end > len(data):
        raise BerError(f"truncated TLV body: need {body_end}, have {len(data)}")
    body = data[body_start:body_end]
    if tag == TAG_SEQUENCE:
        return Sequence(tuple(_decode_all(body, _depth + 1))), body_end
    if (tag & 0xE0) == 0xA0:  # context-class constructed: a PDU
        return TaggedPdu(tag, tuple(_decode_all(body, _depth + 1))), body_end
    decoder = _PRIMITIVE_DECODERS.get(tag)
    if decoder is None:
        raise BerError(f"unsupported BER tag 0x{tag:02X}")
    return decoder(body), body_end


def _decode_all(body: bytes, _depth: int = 0) -> Iterable[BerValue]:
    out = []
    offset = 0
    while offset < len(body):
        value, offset = reference_decode(body, offset, _depth=_depth)
        out.append(value)
    return out
