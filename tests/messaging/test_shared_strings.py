"""The shared string table under the message and event decoders.

``decode_message`` and every event string field take their strings from
``serialization.shared_str``.  What is pinned:

* decoding equals the references (``reference_wire.py`` /
  ``reference_events.py``, which decode each string afresh) whether the
  table is cold, warm, or cleared part way through a stream;
* two independently encoded copies of one message, or of one event,
  decode to the same string objects;
* the table never holds more than its fixed count, keeps no long string
  and no string that failed to decode;
* the records a session keeps (``MessageId``, ``SemanticMessage``, every
  event class) carry no per-instance ``__dict__``.

CI runs this file again under ``--hypothesis-profile=deep``.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import events
from repro.messaging import serialization
from repro.messaging.message import MessageId, SemanticMessage
from repro.messaging.serialization import WireError, decode_message, encode_message, shared_str

from ..core import reference_events as ref_events
from ..core.test_events_reference import CLASSES, kwargs_of
from .reference_wire import reference_decode_message
from .test_wire_reference import MESSAGES, alike, outcome

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=60, deadline=None)

TABLE = serialization._strings
#: how each stream treats the table: empty before every decode, filled by
#: a first pass, or emptied once part way through
MODES = st.sampled_from(["cold", "warm", "cleared"])


def clear_table():
    """Empty the string table, and the tables of recent decodes whose hits
    would skip it."""
    TABLE.clear()
    serialization._messages.clear()
    events._events.clear()


def decode_stream(decode, items, mode, clear_at):
    """``decode`` over ``items`` with the table in ``mode``."""
    clear_table()
    if mode == "warm":
        [outcome(decode, *item) for item in items]
    out = []
    for i, item in enumerate(items):
        if mode == "cold" or (mode == "cleared" and i == clear_at):
            clear_table()
        out.append(outcome(decode, *item))
    return out


@BUDGET
@given(st.lists(MESSAGES, min_size=1, max_size=8), MODES, st.integers(0, 7), st.data())
def test_decode_message_matches_reference_cold_warm_and_cleared(messages, mode, clear_at, data):
    wire = [encode_message(m) for m in messages]
    # a few streams repeat a message, or carry one with a byte broken
    wire += data.draw(st.lists(st.sampled_from(wire), max_size=3), label="repeats")
    at = data.draw(st.integers(0, len(wire[0])), label="broken at")
    wire.append(wire[0][:at] + b"\xff" + wire[0][at + 1 :])
    items = [(w,) for w in wire]
    assert alike(decode_stream(decode_message, items, mode, clear_at), [
        outcome(reference_decode_message, w) for w in wire
    ])


@BUDGET
@given(st.data(), MODES, st.integers(0, 7))
def test_event_decode_matches_reference_cold_warm_and_cleared(data, mode, clear_at):
    items = []
    for name in data.draw(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=8), label="classes"):
        try:
            body = getattr(ref_events, name)(**data.draw(kwargs_of(name))).to_body()
        except Exception:  # noqa: BLE001 - an unencodable value has no body
            continue
        items.append((getattr(events, name).kind, body))
    items += [(kind, body[: len(body) // 2] + b"\xc3" + body[len(body) // 2 :]) for kind, body in items[:2]]
    got = decode_stream(events.decode_event, items, mode, clear_at)
    want = [outcome(ref_events.decode_event, *item) for item in items]
    # each module has its own classes (and error texts): compare reprs and error names
    def comparable(o):
        return ("ok", repr(o[1])) if o[0] == "ok" else ("err", o[1].__name__)

    assert list(map(comparable, got)) == list(map(comparable, want))


def test_copies_decode_to_the_same_strings():
    TABLE.clear()
    headers = {"modality": "image", "image_id": "img-7", "packet_index": 3}
    a, b = (
        decode_message(encode_message(SemanticMessage.create("alice", "true", headers=dict(headers), kind="chat")))
        for _ in range(2)
    )
    assert a.msg_id != b.msg_id
    assert a.kind is b.kind and a.sender is b.sender and a.msg_id.sender is b.msg_id.sender
    assert all(x is y for x, y in zip(a.headers, b.headers))
    assert a.headers["image_id"] is b.headers["image_id"]
    e, f = (events.decode_event("image-packet", events.ImagePacketEvent("img-7", 1).to_body()) for _ in range(2))
    assert e.image_id is f.image_id is a.headers["image_id"]


def test_long_and_undecodable_strings_are_not_kept():
    TABLE.clear()
    long_raw = "x".encode() * (serialization._SHARED_BYTES + 1)
    assert shared_str(long_raw) == long_raw.decode()
    with pytest.raises(UnicodeDecodeError):
        shared_str(b"ab\xff")
    assert TABLE == {}
    bad = encode_message(SemanticMessage.create("s", "true", headers={"k": "v\xe9"}))
    with pytest.raises(WireError, match="UTF-8"):
        decode_message(bad.replace("v\xe9".encode(), b"v\xff\xff"))
    assert b"v\xff\xff" not in TABLE


def test_table_stays_within_its_fixed_count():
    TABLE.clear()
    cap = serialization._SHARED_STRINGS
    most = 0
    for i in range(10 * cap):
        shared_str(f"name-{i}".encode())
        most = max(most, len(TABLE))
    assert most == cap and len(TABLE) <= cap
    for i in range(2 * cap):
        decode_message(encode_message(SemanticMessage.create(f"s{i}", "true", headers={f"h{i}": f"v{i}"})))
        most = max(most, len(TABLE))
    assert most == cap


@pytest.mark.parametrize(
    "record",
    [MessageId("a", 1), SemanticMessage.create("a", "true"), events.Event()]
    + [getattr(events, name)() for name in CLASSES],
    ids=lambda r: type(r).__name__,
)
def test_kept_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))
