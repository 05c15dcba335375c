"""The tables of recent decodes under the three receive-path decoders.

``decode_message``, ``decode_event`` and ``ImagePacket.from_bytes`` each
look their input up in a :class:`repro._recent.Recent` table before
decoding, so the receivers of one multicast datagram share one decode.
What is pinned:

* each decoder equals its reference (``reference_wire.py``,
  ``reference_events.py``, ``tests/media/reference_packets.py``, all of
  which decode afresh) whether the tables are cold, warm, or cleared part
  way through a stream;
* a malformed input raises at every call, even right after a valid one
  it is a prefix of, and is never kept;
* equal bytes decode to the same object;
* a table never holds more than ``CAPACITY`` entries, nor an input longer
  than ``MAX_INPUT_BYTES`` (one ``rtp.DEFAULT_MTU``);
* input that is not ``bytes`` is neither looked up nor kept;
* after a six-receiver image share every receiver archives the same
  message objects, and each still equals a fresh decode of its bytes: no
  receive path mutated a shared record.

CI runs this file again under ``--hypothesis-profile=deep``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import _recent
from repro.core import events
from repro.core.framework import CollaborationFramework
from repro.media import progressive
from repro.media.images import collaboration_scene
from repro.media.progressive import ImagePacket, ImagePacketError
from repro.messaging import serialization
from repro.messaging.message import SemanticMessage
from repro.messaging.rtp import DEFAULT_MTU
from repro.messaging.serialization import WireError, decode_message, encode_message

from ..core import reference_events as ref_events
from ..core.test_events_reference import CLASSES, kwargs_of
from ..media.reference_packets import reference_packet_from_bytes
from .reference_wire import reference_decode_message
from .test_wire_reference import MESSAGES, alike, outcome

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=60, deadline=None)

TABLES = (serialization._messages, events._events, progressive._packets)
#: how each stream treats the tables: empty before every decode, filled
#: by a first pass, or emptied once part way through
MODES = st.sampled_from(["cold", "warm", "cleared"])

PACKETS = st.builds(
    ImagePacket,
    st.integers(0, 2**16 - 1),
    st.integers(0, 2**16 - 1),
    st.lists(
        st.binary(max_size=40).flatmap(lambda data: st.tuples(st.just(data), st.integers(0, 8 * len(data)))),
        max_size=3,
    ).map(tuple),
)


def clear_tables():
    for table in TABLES:
        table.clear()


def decode_stream(decode, items, mode, clear_at):
    """``decode`` over ``items`` with the tables in ``mode``."""
    clear_tables()
    if mode == "warm":
        [outcome(decode, *item) for item in items]
    out = []
    for i, item in enumerate(items):
        if mode == "cold" or (mode == "cleared" and i == clear_at):
            clear_tables()
        out.append(outcome(decode, *item))
    return out


def with_repeats_and_a_break(data, items):
    """``items`` (argument tuples, the input bytes last), then a few of
    them again as fresh, equal bytes objects, then the first with one
    byte broken."""
    repeats = data.draw(st.lists(st.sampled_from(items), max_size=3), label="repeats")
    *args, raw = items[0]
    at = data.draw(st.integers(0, len(raw)), label="broken at")
    broken = raw[:at] + b"\xff" + raw[at + 1 :]
    return items + [(*a, bytes(bytearray(r))) for *a, r in repeats] + [(*args, broken)]


# ----------------------------------------------------------------------
# the oracles
# ----------------------------------------------------------------------
@BUDGET
@given(st.lists(MESSAGES, min_size=1, max_size=8), MODES, st.integers(0, 11), st.data())
def test_decode_message_matches_reference_cold_warm_and_cleared(messages, mode, clear_at, data):
    items = with_repeats_and_a_break(data, [(encode_message(m),) for m in messages])
    assert alike(decode_stream(decode_message, items, mode, clear_at), [
        outcome(reference_decode_message, *item) for item in items
    ])


@BUDGET
@given(st.data(), MODES, st.integers(0, 11))
def test_decode_event_matches_reference_cold_warm_and_cleared(data, mode, clear_at):
    items = []
    for name in data.draw(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=8), label="classes"):
        try:
            body = getattr(ref_events, name)(**data.draw(kwargs_of(name))).to_body()
        except Exception:  # noqa: BLE001 - an unencodable value has no body
            continue
        items.append((getattr(events, name).kind, body))
    if not items:
        return
    items = with_repeats_and_a_break(data, items)
    got = decode_stream(events.decode_event, items, mode, clear_at)
    want = [outcome(ref_events.decode_event, *item) for item in items]

    # each module has its own classes (and error texts): compare reprs and error names
    def comparable(o):
        return ("ok", repr(o[1])) if o[0] == "ok" else ("err", o[1].__name__)

    assert list(map(comparable, got)) == list(map(comparable, want))


@BUDGET
@given(st.lists(PACKETS, min_size=1, max_size=8), MODES, st.integers(0, 11), st.data())
def test_packet_decode_matches_reference_cold_warm_and_cleared(packets, mode, clear_at, data):
    items = with_repeats_and_a_break(data, [(p.to_bytes(),) for p in packets])
    assert decode_stream(ImagePacket.from_bytes, items, mode, clear_at) == [
        outcome(reference_packet_from_bytes, *item) for item in items
    ]


# ----------------------------------------------------------------------
# the table's rules, for each decoder
# ----------------------------------------------------------------------
def message_bytes(i, body=b"x"):
    return encode_message(SemanticMessage.create(f"s{i}", "true", headers={"i": i}, body=body, kind="chat"))


def chat_body(i, text=""):
    return events.ChatEvent(author=f"a{i}", text=text).to_body()


def packet_bytes(i, data=b"ab"):
    return ImagePacket(i % 2**16, i // 2**16, ((data, 16),)).to_bytes()


#: per decoder: (its table, decode(raw), a distinct valid input for each
#: i, the raw bytes of an input of n bytes or more, the error it raises)
DECODERS = {
    "message": (
        serialization._messages,
        decode_message,
        message_bytes,
        lambda n: message_bytes(0, b"x" * n),
        WireError,
    ),
    "event": (
        events._events,
        lambda raw: events.decode_event("chat", raw),
        chat_body,
        lambda n: chat_body(0, "x" * n),
        events.EventError,
    ),
    "packet": (
        progressive._packets,
        ImagePacket.from_bytes,
        packet_bytes,
        lambda n: packet_bytes(0, b"x" * n),
        ImagePacketError,
    ),
}
decoder_ids = pytest.mark.parametrize("name", sorted(DECODERS))


@decoder_ids
def test_equal_bytes_decode_to_the_same_object(name):
    table, decode, valid, _, _ = DECODERS[name]
    clear_tables()
    raw = valid(1)
    copy = bytes(bytearray(raw))
    assert copy is not raw
    first = decode(raw)
    assert decode(copy) is first and decode(raw) is first and len(table) == 1


@decoder_ids
def test_malformed_input_raises_at_every_call(name):
    table, decode, valid, _, error = DECODERS[name]
    clear_tables()
    raw = valid(2)
    # a prefix the valid input extends, and the valid input with a byte after it
    hostile = [raw[:-1]] + ([raw + b"\x00"] if name == "packet" else [])
    for _ in range(3):
        for bad in hostile:
            decode(raw)
            with pytest.raises(error):
                decode(bad)
    assert len(table) == 1


def test_an_undecodable_kind_is_refused_at_every_call():
    clear_tables()
    body = chat_body(3)
    events.decode_event("chat", body)
    for _ in range(3):
        with pytest.raises(events.EventError, match="unknown event kind"):
            events.decode_event("no-such-kind", body)


@decoder_ids
def test_table_stays_within_its_fixed_count(name):
    table, decode, valid, _, _ = DECODERS[name]
    clear_tables()
    most = 0
    for i in range(10 * _recent.CAPACITY):
        decode(valid(i))
        most = max(most, len(table))
    assert most == _recent.CAPACITY


@decoder_ids
def test_an_input_longer_than_one_mtu_is_decoded_but_not_kept(name):
    table, decode, _, long_input, _ = DECODERS[name]
    assert _recent.MAX_INPUT_BYTES == DEFAULT_MTU
    clear_tables()
    raw = long_input(DEFAULT_MTU)
    assert len(raw) > _recent.MAX_INPUT_BYTES
    assert decode(raw) == decode(raw) and decode(raw) is not decode(raw)
    assert len(table) == 0


@decoder_ids
@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=lambda w: w.__name__)
def test_input_that_is_not_bytes_is_neither_looked_up_nor_kept(name, wrap):
    table, decode, valid, _, _ = DECODERS[name]
    raw = valid(4)
    clear_tables()
    decode(raw)
    table.clear()  # the string table stays warm: only this table differs
    without = outcome(decode, wrap(raw))
    kept = decode(raw)
    with_kept = outcome(decode, wrap(raw))
    assert with_kept == without and len(table) == 1
    assert with_kept[0] != "ok" or with_kept[1] is not kept


# ----------------------------------------------------------------------
# a session shares its records and mutates none
# ----------------------------------------------------------------------
def test_six_receivers_hold_the_same_records_unchanged():
    clear_tables()
    fw = CollaborationFramework("t", objective="decode once", seed=0)
    sharer = fw.add_wired_client("sharer")
    receivers = [fw.add_wired_client(f"rx{r}") for r in range(6)]
    for client in (sharer, *receivers):
        client.join()
    fw.run_for(0.5)
    sharer.share_image("img", collaboration_scene(64, 64, seed=3))
    sharer.send_chat("after the share")
    fw.run_for(0.5)

    # the sharer keeps its own originals: no receiver ever held those objects
    sent = {m.msg_id: m for _, m in sharer.archive.replay() if m.sender == "sharer"}
    archives = [{m.msg_id: m for _, m in rx.archive.replay() if m.msg_id in sent} for rx in receivers]
    assert len(archives[0]) == len(sent) == 1 + 1 + 16 + 1  # join, announce, packets, chat
    for archive in archives[1:]:
        assert archive.keys() == archives[0].keys()
        assert all(archive[i] is archives[0][i] for i in archive)
    for msg_id, msg in archives[0].items():
        assert msg == reference_decode_message(encode_message(sent[msg_id]))
    # the events and image packets are shared too, and equal fresh decodes
    shared_kinds = (events.ImageShareAnnounce, events.ImagePacketEvent, events.ChatEvent)
    received = [[e for _, e in rx.events_received if isinstance(e, shared_kinds)] for rx in receivers]
    assert len(received[0]) == 18
    assert all({id(e) for e in r} == {id(e) for e in received[0]} for r in received)
    assert sorted(map(repr, received[0])) == sorted(
        repr(ref_events.decode_event(m.kind, m.body)) for m in sent.values() if m.kind != "join"
    )
    held = [rx.viewer.viewed["img"].assembly._packets for rx in receivers]
    for packets in held[1:]:
        common = packets.keys() & held[0].keys()
        assert common and all(packets[i] is held[0][i] for i in common)
    originals = sharer.viewer.shared["img"].packets()
    assert held[0] and all(packet == originals[i] for i, packet in held[0].items())
