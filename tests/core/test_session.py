"""Tests for session descriptors, membership, and archival."""

from unittest import mock

from hypothesis import given, strategies as st

from repro.core import session
from repro.core.session import Membership, SessionArchive, SessionDescriptor
from repro.messaging.message import SemanticMessage


class TestDescriptor:
    def test_selector_targets_session(self):
        s = SessionDescriptor("crisis-1", "flood response")
        from repro.core.selectors import Selector

        sel = Selector(s.selector_text())
        assert sel.matches({"session": "crisis-1"})
        assert not sel.matches({"session": "other"})

    def test_selector_with_extra_condition(self):
        s = SessionDescriptor("crisis-1", "flood response")
        from repro.core.selectors import Selector

        sel = Selector(s.selector_text("role == 'medic'"))
        assert sel.matches({"session": "crisis-1", "role": "medic"})
        assert not sel.matches({"session": "crisis-1", "role": "clerk"})

    def test_result_space(self):
        s = SessionDescriptor("s", "o", result_space=("chat",))
        assert s.supports("chat")
        assert not s.supports("image")


class TestMembership:
    def test_join_leave(self):
        m = Membership()
        m.join("a", 1.0)
        m.join("b", 2.0)
        m.leave("a")
        assert m.members == ["b"]
        assert (m.joins, m.leaves) == (2, 1)

    def test_rejoin_idempotent(self):
        m = Membership()
        m.join("a", 1.0)
        m.join("a", 2.0)
        assert m.joins == 1
        assert len(m) == 1

    def test_leave_unknown_noop(self):
        m = Membership()
        m.leave("ghost")
        assert m.leaves == 0


class TestArchive:
    def test_record_and_replay(self):
        a = SessionArchive()
        m1 = SemanticMessage.create("x", "true", kind="chat")
        m2 = SemanticMessage.create("x", "true", kind="image-share")
        a.record(1.0, m1)
        a.record(2.0, m2)
        assert len(a) == 2
        assert [m.kind for _, m in a.replay()] == ["chat", "image-share"]

    def test_replay_since(self):
        a = SessionArchive()
        a.record(1.0, SemanticMessage.create("x", "true", kind="old"))
        a.record(5.0, SemanticMessage.create("x", "true", kind="new"))
        assert [m.kind for _, m in a.replay(since=2.0)] == ["new"]

    def test_capacity_evicts_oldest(self):
        with mock.patch.object(session, "ARCHIVE_CAPACITY", 3):
            a = SessionArchive()
        for i in range(5):
            a.record(float(i), SemanticMessage.create("x", "true", kind=f"k{i}"))
        assert len(a) == 3
        assert [m.kind for _, m in a.replay()] == ["k2", "k3", "k4"]
        assert a.archived == 5


class ListArchive:
    """The archive as it was before it became a ring: a re-sliced list,
    here holding each ``msg_id`` once by a linear scan."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = []
        self.archived = 0

    def record(self, time, message):
        if any(m.msg_id == message.msg_id for _, m in self._entries):
            return False
        self._entries.append((time, message))
        self.archived += 1
        if len(self._entries) > self.capacity:
            self._entries = self._entries[-self.capacity :]
        return True

    def replay(self, since=0.0):
        return [(t, m) for t, m in self._entries if t >= since]

    def __len__(self):
        return len(self._entries)


KINDS = ["chat", "join", "image-share"]
ARCHIVE_OPS = st.one_of(
    st.tuples(st.just("record"), st.floats(0, 10), st.sampled_from(KINDS)),
    # the k-th recorded message again: a replay, held or already evicted
    st.tuples(st.just("again"), st.floats(0, 10), st.integers(0, 39)),
    st.tuples(st.just("replay"), st.floats(0, 10), st.none()),
)


@given(st.integers(1, 6), st.lists(ARCHIVE_OPS, max_size=40))
def test_ring_archive_equals_list_reference(capacity, program):
    # capacity <= 6 against up to 40 records: most programs cross the edge
    with mock.patch.object(session, "ARCHIVE_CAPACITY", capacity):
        ring, ref = SessionArchive(), ListArchive(capacity)
    recorded = []
    for op, t, arg in program:
        if op == "record":
            recorded.append(SemanticMessage.create("x", "true", kind=arg))
            assert ring.record(t, recorded[-1]) is ref.record(t, recorded[-1]) is True
        elif op == "again":
            if recorded:
                message = recorded[arg % len(recorded)]
                assert ring.record(t, message) == ref.record(t, message)
        else:
            assert ring.replay(since=t) == ref.replay(since=t)
        assert (len(ring), ring.archived) == (len(ref), ref.archived)
    assert ring.replay() == ref.replay()
