"""Hypothesis properties: the one event body codec equals the per-class codecs.

``reference_events.py`` holds every event class as it was when each
wrote its own ``to_body`` / ``from_body``.  For each of the 16 classes:

* values drawn from the field types (integers in and out of every wire
  width, any float, any text) encode to the same bytes on both, or fail
  with the same exception type (except that where a per-class codec let
  ``struct.error`` out, the one codec raises ``EventError``);
* a valid body, every truncation of it, bit-flipped copies, copies with
  trailing bytes, and arbitrary bytes decode to equal events on both, or
  to an ``EventError`` on both.

CI runs this file again under ``--hypothesis-profile=deep``.
"""

import dataclasses
import struct
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import events

from . import reference_events as ref

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=60, deadline=None)

CLASSES = sorted(
    name
    for name in events.__all__
    if isinstance(getattr(events, name), type)
    and issubclass(getattr(events, name), events.Event)
    and name != "Event"
)

INTS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(-(2**31), 2**31 - 1),
    st.integers(0, 2**64 - 1),
    st.integers(-(2**70), 2**70),
)
TEXT = st.text(max_size=12)
SCALARS = {str: TEXT, int: INTS, float: st.floats(), bool: st.booleans(), bytes: st.binary(max_size=100)}


def strategy(hint):
    """Values of a field's annotated type, independent of any ``wire`` layout."""
    if hint in SCALARS:
        return SCALARS[hint]
    args = typing.get_args(hint)
    if args[-1] is Ellipsis:
        return st.lists(strategy(args[0]), max_size=5).map(tuple)
    return st.tuples(*map(strategy, args))


def kwargs_of(name):
    cls = getattr(events, name)
    hints = typing.get_type_hints(cls)
    return st.fixed_dictionaries({f.name: strategy(hints[f.name]) for f in dataclasses.fields(cls)})


def outcome(fn, *args):
    """``("ok", type name, repr)``, ``("EventError",)`` or ``("raised", type)``.

    ``repr`` compares floats bit-for-bit enough (``nan``, ``-0.0``) where
    ``==`` would not; each module's own ``EventError`` counts as the same.
    """
    try:
        value = fn(*args)
    except (events.EventError, ref.EventError):
        return ("EventError",)
    except Exception as exc:  # noqa: BLE001 - the oracle compares whatever is raised
        return ("raised", type(exc))
    return ("ok", type(value).__name__, repr(value))


def decodes_alike(name, data):
    new, old = getattr(events, name), getattr(ref, name)
    assert outcome(new.from_body, data) == outcome(old.from_body, data)
    assert outcome(events.decode_event, new.kind, data) == outcome(ref.decode_event, old.kind, data)


@pytest.mark.parametrize("name", CLASSES)
@BUDGET
@given(data=st.data())
def test_encoding_is_byte_identical(name, data):
    kw = data.draw(kwargs_of(name))
    new = outcome(lambda: getattr(events, name)(**kw).to_body())
    old = outcome(lambda: getattr(ref, name)(**kw).to_body())
    assert new == (("EventError",) if old == ("raised", struct.error) else old)


@pytest.mark.parametrize("name", CLASSES)
@BUDGET
@given(data=st.data())
def test_mutated_bodies_decode_alike(name, data):
    kw = data.draw(kwargs_of(name))
    try:
        body = getattr(ref, name)(**kw).to_body()
    except Exception:  # noqa: BLE001 - unencodable values have no body to mutate
        return
    decodes_alike(name, body)
    for cut in range(len(body)):
        decodes_alike(name, body[:cut])
    decodes_alike(name, body + data.draw(st.binary(min_size=1, max_size=16), label="trailing"))
    if body:
        flipped = bytearray(body)
        for i, bit in data.draw(
            st.lists(st.tuples(st.integers(0, len(body) - 1), st.integers(0, 7)), min_size=1, max_size=4),
            label="flips",
        ):
            flipped[i] ^= 1 << bit
        decodes_alike(name, bytes(flipped))


@pytest.mark.parametrize("name", CLASSES)
@BUDGET
@given(data=st.binary(max_size=64))
def test_arbitrary_bytes_decode_alike(name, data):
    decodes_alike(name, data)


def test_every_event_class_is_compared():
    assert len(CLASSES) == 12
    assert CLASSES == sorted(
        name
        for name in ref.__all__
        if isinstance(getattr(ref, name), type) and issubclass(getattr(ref, name), ref.Event) and name != "Event"
    )
