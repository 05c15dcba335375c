"""Hypothesis properties: the BER codec equals its slow reference.

``reference_ber.py`` holds ``encode`` / ``decode`` as they were before a
TLV became one flat pass (with the X.690 §8.19.4 first-subidentifier fix
both share).  The properties:

* random values — every tag, SNMP PDUs nested in SEQUENCEs, long-form
  lengths, OIDs under all three root arcs — encode to the same bytes and
  decode to equal values at the same offset on both;
* those bytes bit-flipped, truncated (at every length), or with bytes
  inserted, arbitrary bytes, and TLVs nested past the depth guard, give
  an equal value and offset or the same exception type on both;
* OID bodies encode and decode like the reference, valid or not, and
  the encode memo stays at its fixed size.

CI runs this file again under ``--hypothesis-profile=deep``.
"""

from hypothesis import given, settings, strategies as st

from repro.snmp import ber
from repro.snmp.ber import (
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
    decode,
    decode_oid_body,
    encode,
    encode_oid_body,
)

from . import reference_ber
from .reference_ber import reference_decode, reference_encode

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=100, deadline=None)

U32 = st.integers(0, 2**32 - 1)
ARCS = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 39)),
    st.tuples(st.just(2), st.integers(0, 2**20)),
).flatmap(lambda head: st.lists(st.integers(0, 2**32) | st.integers(0, 127), max_size=12).map(
    lambda tail: head + tuple(tail)
))
PRIMITIVES = st.one_of(
    st.integers(-(2**70), 2**70).map(Integer),
    st.integers(-300, 300).map(Integer),
    U32.map(Counter32),
    U32.map(Gauge32),
    U32.map(TimeTicks),
    st.integers(0, 2**64 - 1).map(Counter64),
    st.binary(max_size=300).map(OctetString),
    st.just(Null()),
    ARCS.map(ObjectIdentifierValue),
    st.binary(min_size=4, max_size=4).map(IpAddress),
    st.sampled_from([NoSuchObject(), NoSuchInstance(), EndOfMibView()]),
)
VALUES = st.recursive(
    PRIMITIVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).map(lambda items: Sequence(tuple(items))),
        st.tuples(st.integers(0xA0, 0xBF), st.lists(inner, max_size=5)).map(
            lambda t: TaggedPdu(t[0], tuple(t[1]))
        ),
    ),
    max_leaves=25,
)


def outcome(fn, *args):
    """``("ok", result)`` or ``("err", exception type)``: messages may cite
    offsets that the in-place decoder counts from a different origin."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the oracle compares whatever is raised
        return ("err", type(exc))


def mutate(data: bytes, edits: list[tuple[str, int, int]]) -> bytes:
    """Apply ``(op, position, byte)`` edits: flip bits, truncate, insert."""
    out = bytearray(data)
    for op, at, byte in edits:
        if not out:
            break
        at %= len(out)
        if op == "flip":
            out[at] ^= byte or 1
        elif op == "cut":
            del out[at:]
        else:
            out.insert(at, byte)
    return bytes(out)


EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "flip", "cut", "insert"]), st.integers(0, 2**16), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


@BUDGET
@given(VALUES)
def test_encode_and_decode_match_reference(value):
    data = encode(value)
    assert data == reference_encode(value)
    assert decode(data) == reference_decode(data) == (value, len(data))


@BUDGET
@given(VALUES, EDITS, st.integers(0, 3))
def test_decode_fails_like_reference_on_corrupt_bytes(value, edits, offset):
    data = mutate(encode(value), edits)
    assert outcome(decode, data) == outcome(reference_decode, data)
    assert outcome(decode, data, offset) == outcome(reference_decode, data, offset)


@BUDGET
@given(VALUES)
def test_decode_fails_like_reference_on_every_prefix(value):
    data = encode(value)
    for cut in range(len(data)):
        assert outcome(decode, data[:cut]) == outcome(reference_decode, data[:cut])


@BUDGET
@given(st.binary(max_size=48))
def test_decode_fails_like_reference_on_arbitrary_bytes(data):
    assert outcome(decode, data) == outcome(reference_decode, data)


@BUDGET
@given(st.integers(1, 40), st.sampled_from([0x30, 0xA0, 0xA2]))
def test_nesting_guard_matches_reference(depth, tag):
    data = b""
    for _ in range(depth):
        data = bytes([tag]) + ber.encode_length(len(data)) + data
    assert outcome(decode, data) == outcome(reference_decode, data)


@BUDGET
@given(st.lists(st.integers(-3, 2**33), min_size=0, max_size=8))
def test_oid_body_encode_matches_reference(arcs):
    arcs = tuple(arcs)
    assert outcome(encode_oid_body, arcs) == outcome(reference_ber.encode_oid_body, arcs)
    # a second call answers from the memo, with the same bytes
    assert outcome(encode_oid_body, arcs) == outcome(reference_ber.encode_oid_body, arcs)


@BUDGET
@given(st.binary(max_size=24))
def test_oid_body_decode_matches_reference(body):
    assert outcome(decode_oid_body, body) == outcome(reference_ber.decode_oid_body, body)


def test_oid_memo_stays_at_its_fixed_size():
    for n in range(1000):
        arcs = (1, 3, 6, 1, 4, 1, 4392, n)
        assert encode_oid_body(arcs) == reference_ber.encode_oid_body(arcs)
        assert len(ber._oid_memo) <= ber._OID_MEMO_SIZE


def test_integer_bodies_are_minimal_like_reference():
    for v in [0, 1, -1, 127, 128, -128, -129, 255, 256, 2**31 - 1, -(2**31), 2**63, -(2**63) - 1]:
        assert encode(Integer(v)) == reference_encode(Integer(v))
