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
  total), the same window per source and the same bounded state on
  :class:`RtpReassembler` and :class:`ReferenceRtpReassembler` — up to
  the first fragment from behind a window that an out-of-window jump
  moved.  There the two part: the reference drops every such fragment
  uncounted and keeps the jump; :class:`RtpReassembler` counts each
  drop, and undoes a jump that the old sequence outlives.  That rule is
  pinned on the whole traffic by its own properties: stated step by
  step, and as "one damaged header costs at most its own message";
* more sources than ``MAX_TRACKED_SOURCES``, each leaving a torn
  message, evict identically;
* a single-fragment message reaches ``on_message`` without a partial,
  and a malformed header raises what ``RtpPacket.decode`` raises.

CI runs this file again under ``--hypothesis-profile=deep``.
"""

from hypothesis import assume, example, given, settings, strategies as st

from repro.messaging.message import SemanticMessage
from repro.messaging.rtp import (
    _HEADER,
    HEADER_SIZE,
    MAX_TRACKED_SOURCES,
    REORDER_WINDOW,
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


def alike(a, b):
    """Equal outcomes.  ``repr`` decides where ``==`` does not: a byte
    broken into a float's exponent decodes to ``nan`` on both sides."""
    return a == b or repr(a) == repr(b)


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
    assert alike(outcome(decode_message, data), outcome(reference_decode_message, data))


@BUDGET
@given(MESSAGES)
def test_decode_message_fails_like_reference_on_every_prefix(msg):
    data = encode_message(msg)
    for cut in range(len(data)):
        assert outcome(decode_message, data[:cut]) == outcome(reference_decode_message, data[:cut])


@BUDGET
@given(st.binary(max_size=64).map(lambda tail: b"SM\x01" + tail) | st.binary(max_size=16))
def test_decode_message_fails_like_reference_on_arbitrary_bytes(data):
    assert alike(outcome(decode_message, data), outcome(reference_decode_message, data))


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


def replay(reassembler_cls, datagrams):
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
    if isinstance(r, ReferenceRtpReassembler):
        windows = [(ssrc, st["newest_msg"]) for ssrc, st in r._stats.items()]
    else:
        windows = [(ssrc, src.newest) for ssrc, src in r._sources.items()]
    return {
        "delivered": delivered,
        "per_datagram": per_datagram,
        "expired": expired,
        "windows": windows,
        "partial": sorted((key, p.frag_count, sorted(p.fragments.items())) for key, p in r._partial.items()),
        "delivered_keys": r._delivered,
    }


def header(dg):
    """``(ssrc, msg_seq)`` of a fragment whose header ``ingest`` accepts, else None."""
    if len(dg) < HEADER_SIZE:
        return None
    ssrc, msg_seq, frag_index, frag_count, _seq = _HEADER.unpack_from(dg)
    return (ssrc, msg_seq) if frag_index < frag_count else None


def first_behind_a_jump(datagrams):
    """Index of the first fragment from behind its source's window after an
    out-of-window forward jump of that source (the reference's window), or None."""
    newest, jumped = {}, set()
    for i, dg in enumerate(datagrams):
        if (h := header(dg)) is None:
            continue
        ssrc, msg_seq = h
        last = newest.get(ssrc, -1)
        if msg_seq - last > REORDER_WINDOW and last >= 0:
            jumped.add(ssrc)
        if msg_seq > last:
            newest[ssrc] = msg_seq
        elif last - msg_seq > REORDER_WINDOW and ssrc in jumped:
            return i
    return None


@BUDGET
@given(traffic())
def test_reassembler_matches_reference(case):
    _, datagrams = case
    datagrams = datagrams[: first_behind_a_jump(datagrams)]
    assert replay(RtpReassembler, datagrams) == replay(ReferenceRtpReassembler, datagrams)


def fragments(*msg_seqs, ssrc=0):
    """One whole-message fragment of ``ssrc`` per message-seq, in order."""
    return [_HEADER.pack(ssrc, m, 0, 1, i) for i, m in enumerate(msg_seqs)]


@BUDGET
@given(traffic())
# a damaged header jumps the source far ahead; the next fragment is behind
# the new window but more than a window ahead of the restored one
@example(([0], fragments(1, 2**24 + 2, 2**16 + 3)))
@example(([0], fragments(0, 2**24 + 1, 2**16 + 2)))
def test_reassembler_follows_the_jump_rule(case):
    """Each fragment, against its source's window before it arrives:

    * from behind the window it is dropped and counted, unless a jump is
      unconfirmed and it is not behind the window before the jump: then
      that window is restored and the fragment taken against it — as a
      fresh out-of-window jump from the restored window, when it is one;
    * a fragment within the window of an unconfirmed jump confirms it;
    * a forward jump of more than the window is taken at once, and is
      unconfirmed until then;

    and afterwards every source holds only keys inside its window.
    """
    _, datagrams = case
    r = RtpReassembler(lambda ssrc, payload: None)
    for dg in datagrams:
        h = header(dg)
        src = r._sources.get(h[0]) if h else None
        newest, prior = (src.newest, src.prior) if src else (-1, None)
        dropped_before = r.behind_window
        outcome(r.ingest, dg)  # a malformed header raises; an inconsistent count raises late
        if h is None:
            assert r.behind_window == dropped_before
            continue
        ssrc, m = h
        after = r._sources[ssrc]
        W = REORDER_WINDOW
        restored = prior is not None and newest - m > W and prior - m <= W
        base = prior if restored else newest
        dropped = base - m > W
        assert r.behind_window - dropped_before == dropped
        if not dropped:
            assert after.newest == max(base, m)
        if restored and m - prior > W:
            assert (after.prior, after.newest) == (prior, m)
        elif restored or (prior is not None and abs(m - newest) <= W):
            assert after.prior is None
        elif prior is None and newest >= 0 and m - newest > W:
            assert after.prior == newest
        elif prior is not None:
            assert after.prior == prior
    for ssrc, src in r._sources.items():
        held = {m for s, m in r._partial if s == ssrc} | {m for s, m in r._delivered if s == ssrc}
        assert all(src.newest - REORDER_WINDOW <= m <= src.newest for m in held)
        assert len(src.kept) <= REORDER_WINDOW + 1


@st.composite
def one_damaged_header(draw):
    """In-order traffic of one source, lossy and duplicated, in which one
    fragment's message-seq jumps far forward; and that fragment's index."""
    mtu = draw(st.integers(HEADER_SIZE + 1, HEADER_SIZE + 8))
    packetizer = RtpPacketizer(7, mtu)
    payloads = draw(st.lists(st.binary(max_size=3 * (mtu - HEADER_SIZE)), min_size=2, max_size=90))
    received = []
    for dg in (f.encode() for p in payloads for f in packetizer.packetize(p)):
        received += [dg] * draw(st.sampled_from([1, 1, 1, 0, 2]))
    assume(len(received) >= 2)
    at = draw(st.integers(1, len(received) - 1))
    assume(received.count(received[at]) == 1)
    ssrc, msg_seq, *rest = _HEADER.unpack_from(received[at])
    jump = draw(st.integers(2**16, 2**31))
    received[at] = _HEADER.pack(ssrc, msg_seq + jump, *rest) + received[at][HEADER_SIZE:]
    return received, at


@BUDGET
@given(one_damaged_header())
def test_one_damaged_header_costs_at_most_its_own_message(case):
    """The reference, fed the same traffic without the damaged fragment,
    delivers what :class:`RtpReassembler` delivers with it — but for the
    damaged fragment itself, which is taken when it is a whole message."""
    datagrams, at = case
    got, want = [], []
    r = RtpReassembler(lambda ssrc, payload: got.append(payload))
    for i, dg in enumerate(datagrams):
        if i == at:
            before = len(got)
        r.ingest(dg)
    reference = ReferenceRtpReassembler(lambda ssrc, payload: want.append(payload))
    for dg in datagrams[:at] + datagrams[at + 1 :]:
        reference.ingest(dg)
    if _HEADER.unpack_from(datagrams[at])[3] == 1:
        assert got.pop(before) == datagrams[at][HEADER_SIZE:]
    assert got == want
    assert r.behind_window == 0


def test_source_eviction_matches_reference():
    datagrams = []
    for ssrc in range(MAX_TRACKED_SOURCES + 40):
        torn = RtpPacketizer(ssrc, HEADER_SIZE + 2).packetize(b"abcdef")
        datagrams += [torn[0].encode(), torn[2].encode()]
    # the first sources come back after eviction: stats start over
    datagrams += [RtpPacketizer(ssrc, 64).packetize(b"again")[0].encode() for ssrc in range(5)]
    fast = replay(RtpReassembler, datagrams)
    assert fast == replay(ReferenceRtpReassembler, datagrams)
    assert len(fast["windows"]) == MAX_TRACKED_SOURCES


def test_single_fragment_message_skips_partial_state():
    got = []
    r = RtpReassembler(lambda ssrc, payload: got.append(payload))
    r._partial = _NoPartials()
    r.ingest(RtpPacket(3, 0, 0, 1, 0, b"whole").encode())
    assert got == [b"whole"] and r._delivered == {(3, 0)}


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
