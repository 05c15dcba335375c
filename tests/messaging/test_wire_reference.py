"""Hypothesis properties: the receive path equals its slow reference.

``reference_wire.py`` holds ``RtpReassembler`` and ``decode_message`` as
they were before each received datagram became one flat pass.  What is
pinned:

* random messages — every header value type, strings and bodies long
  enough for multi-byte varints — decode to equal messages on both;
* the same bytes bit-flipped, truncated (at every length), or with
  bytes inserted, and arbitrary bytes, give an equal message or the same
  exception type and text on both;
* several sources with a small MTU (so most messages span fragments),
  interleaved and put through loss, duplication, late delivery and
  header corruption, give the same ``on_message`` sequence, the same
  exception per datagram, the same abandonment counts (the reference's
  ``expire()`` answers against differences of the monotone ``abandoned``
  total), the same ``report()`` for every source and the same bounded
  state on :class:`RtpReassembler` and :class:`ReferenceRtpReassembler`;
* more sources than ``MAX_TRACKED_SOURCES``, each leaving a torn
  message, evict identically;
* a single-fragment message reaches ``on_message`` without a partial,
  and a malformed header raises what ``RtpPacket.decode`` raises.

CI runs this file again under ``--hypothesis-profile=deep``.
"""

from hypothesis import given, settings, strategies as st

from repro.messaging.message import SemanticMessage
from repro.messaging.rtp import (
    HEADER_SIZE,
    MAX_TRACKED_SOURCES,
    RtpPacket,
    RtpPacketizer,
    RtpReassembler,
)
from repro.messaging.serialization import decode_message, encode_message

from .reference_wire import ReferenceRtpPacket, ReferenceRtpReassembler, reference_decode_message

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=100, deadline=None)


def outcome(fn, *args):
    """``("ok", result)`` or ``("err", exception type, text)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the oracle compares whatever is raised
        return ("err", type(exc), str(exc))


# ----------------------------------------------------------------------
# decode_message
# ----------------------------------------------------------------------
TEXT = st.text(max_size=12) | st.text(min_size=120, max_size=200)
SCALARS = st.one_of(
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-64, 63),
    st.floats(allow_nan=False),
    TEXT,
)
HEADER_VALUES = SCALARS | st.lists(SCALARS, max_size=4)
SELECTORS = st.sampled_from(["true", "role == 'medic'", "session == 'x' and load < 50", "false"])

MESSAGES = st.builds(
    lambda sender, selector, headers, body, kind: SemanticMessage.create(
        sender, selector, headers=headers, body=body, kind=kind
    ),
    TEXT,
    SELECTORS,
    st.dictionaries(TEXT, HEADER_VALUES, max_size=6),
    st.binary(max_size=300),
    TEXT,
)


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
@given(MESSAGES)
def test_decode_message_round_trips_like_reference(msg):
    data = encode_message(msg)
    assert decode_message(data) == reference_decode_message(data) == msg


@BUDGET
@given(MESSAGES, EDITS)
def test_decode_message_fails_like_reference_on_corrupt_bytes(msg, edits):
    data = mutate(encode_message(msg), edits)
    assert outcome(decode_message, data) == outcome(reference_decode_message, data)


@BUDGET
@given(MESSAGES)
def test_decode_message_fails_like_reference_on_every_prefix(msg):
    data = encode_message(msg)
    for cut in range(len(data)):
        assert outcome(decode_message, data[:cut]) == outcome(reference_decode_message, data[:cut])


@BUDGET
@given(st.binary(max_size=64).map(lambda tail: b"SM\x01" + tail) | st.binary(max_size=16))
def test_decode_message_fails_like_reference_on_arbitrary_bytes(data):
    assert outcome(decode_message, data) == outcome(reference_decode_message, data)


# ----------------------------------------------------------------------
# RtpReassembler
# ----------------------------------------------------------------------
ACTIONS = st.sampled_from(["keep"] * 6 + ["drop", "dup", "late", "corrupt", "short"])


@st.composite
def traffic(draw):
    """Datagrams of 1-3 sources as a receiver might see them."""
    mtu = draw(st.integers(HEADER_SIZE + 1, HEADER_SIZE + 8))
    ssrcs = draw(st.lists(st.sampled_from([0, 7, 9, 0xFFFFFFFF]), min_size=1, max_size=3, unique=True))
    streams = []
    for ssrc in ssrcs:
        packetizer = RtpPacketizer(ssrc, mtu)
        payloads = draw(st.lists(st.binary(max_size=3 * (mtu - HEADER_SIZE)), max_size=90))
        streams.append([f.encode() for p in payloads for f in packetizer.packetize(p)])
    # round-robin across sources: the order a shared LAN would give
    sent = [s[turn] for turn in range(max(map(len, streams))) for s in streams if turn < len(s)]
    actions = draw(st.lists(st.tuples(ACTIONS, st.integers(1, 80), st.integers(0, 255)),
                            min_size=len(sent), max_size=len(sent)))
    received, late = [], []
    for i, (dg, (action, k, byte)) in enumerate(zip(sent, actions)):
        received += [d for at, d in late if at <= i]
        late = [(at, d) for at, d in late if at > i]
        if action == "keep":
            received.append(dg)
        elif action == "dup":
            received += [dg, dg]
        elif action == "late":
            late.append((i + k, dg))
        elif action == "corrupt":  # one header byte: ids, counts and seqs go wrong
            at = k % HEADER_SIZE
            received.append(dg[:at] + bytes([dg[at] ^ (byte or 1)]) + dg[at + 1 :])
        elif action == "short":
            received.append(dg[: k % HEADER_SIZE])
    received += [d for _, d in late]
    return ssrcs, received


def abandoned_tally(r):
    """A callable returning the messages ``r`` abandoned since its previous call.

    The reference answers with ``expire()``, which zeroes its count; the
    fast reassembler keeps a monotone ``abandoned`` total, so its tally is
    a difference of two readings.
    """
    if isinstance(r, ReferenceRtpReassembler):
        return r.expire
    last = 0

    def since() -> int:
        nonlocal last
        before, last = last, r.abandoned
        return last - before

    return since


def replay(reassembler_cls, datagrams, ssrcs):
    """Everything observable about feeding ``datagrams`` to a reassembler."""
    delivered = []
    r = reassembler_cls(lambda ssrc, payload: delivered.append((ssrc, payload)))
    tally = abandoned_tally(r)
    per_datagram, expired = [], []
    for i, dg in enumerate(datagrams):
        per_datagram.append((outcome(r.ingest, dg), len(delivered)))
        if i % 25 == 24:
            expired.append(tally())
    expired.append(tally())
    heard = set(ssrcs) | set(r._stats)
    return {
        "delivered": delivered,
        "per_datagram": per_datagram,
        "expired": expired,
        "reports": {ssrc: r.report(ssrc) for ssrc in sorted(heard)},
        "stats": list(r._stats.items()),
        "partial": sorted((key, p.frag_count, sorted(p.fragments.items())) for key, p in r._partial.items()),
        "delivered_keys": r._delivered,
    }


@BUDGET
@given(traffic())
def test_reassembler_matches_reference(case):
    ssrcs, datagrams = case
    assert replay(RtpReassembler, datagrams, ssrcs) == replay(ReferenceRtpReassembler, datagrams, ssrcs)


def test_source_eviction_matches_reference():
    datagrams = []
    for ssrc in range(MAX_TRACKED_SOURCES + 40):
        torn = RtpPacketizer(ssrc, HEADER_SIZE + 2).packetize(b"abcdef")
        datagrams += [torn[0].encode(), torn[2].encode()]
    # the first sources come back after eviction: stats start over
    datagrams += [RtpPacketizer(ssrc, 64).packetize(b"again")[0].encode() for ssrc in range(5)]
    fast = replay(RtpReassembler, datagrams, range(5))
    assert fast == replay(ReferenceRtpReassembler, datagrams, range(5))
    assert len(fast["stats"]) == MAX_TRACKED_SOURCES


def test_single_fragment_message_skips_partial_state():
    got = []
    r = RtpReassembler(lambda ssrc, payload: got.append(payload))
    r._partial = _NoPartials()
    r.ingest(RtpPacket(3, 0, 0, 1, 0, b"whole").encode())
    assert got == [b"whole"] and r.report(3).messages_completed == 1


class _NoPartials(dict):
    """A partial table that fails the test if a partial is ever stored."""

    def __setitem__(self, key, value):
        raise AssertionError(f"single-fragment message {key} built a partial")


def test_header_checks_match_packet_decode():
    zero_count = bytearray(RtpPacket(1, 0, 0, 1, 0, b"x").encode())
    zero_count[10:12] = b"\x00\x00"  # frag_count
    bad_index = RtpPacket(1, 0, 5, 2, 0, b"x").encode()
    for data in (b"", bytes(HEADER_SIZE - 1), bytes(zero_count), bad_index):
        want = outcome(ReferenceRtpPacket.decode, data)
        assert want[0] == "err"
        assert outcome(RtpReassembler(lambda *a: None).ingest, data) == want
