"""Tests for the distributed lock flow (session-wide concurrency control)."""

import pytest

from repro.core.events import LockGrantEvent, LockReleaseEvent, LockRequestEvent, decode_event
from repro.core.framework import CollaborationFramework


@pytest.fixture
def session():
    fw = CollaborationFramework("locks")
    coord = fw.add_wired_client("coordinator")
    coord.lock_coordinator = True
    a = fw.add_wired_client("alice")
    b = fw.add_wired_client("bob")
    for c in (coord, a, b):
        c.join()
    fw.run_for(0.5)
    return fw, coord, a, b


class TestEventCodecs:
    def test_roundtrips(self):
        for e in (
            LockRequestEvent(client_id="a", object_id="s1"),
            LockReleaseEvent(client_id="a", object_id="s1"),
            LockGrantEvent(client_id="a", object_id="s1", granted=True),
            LockGrantEvent(client_id="", object_id="s1", granted=False),
        ):
            assert decode_event(e.kind, e.to_body()) == e


class TestLockFlow:
    def test_grant_on_free_object(self, session):
        fw, coord, a, b = session
        a.request_lock("stroke-1")
        fw.run_for(0.5)
        assert "stroke-1" in a.held_locks
        # every replica learned the owner
        for c in (coord, a, b):
            assert c.lock_owners.get("stroke-1") == "alice"

    def test_contention_queues_until_release(self, session):
        fw, coord, a, b = session
        a.request_lock("s")
        fw.run_for(0.5)
        b.request_lock("s")
        fw.run_for(0.5)
        assert "s" not in b.held_locks
        assert b.lock_owners["s"] == "alice"
        a.release_lock("s")
        fw.run_for(0.5)
        assert "s" in b.held_locks
        assert "s" not in a.held_locks
        assert a.lock_owners["s"] == "bob"

    def test_release_without_waiters_frees(self, session):
        fw, coord, a, b = session
        a.request_lock("s")
        fw.run_for(0.5)
        a.release_lock("s")
        fw.run_for(0.5)
        for c in (coord, a, b):
            assert "s" not in c.lock_owners

    def test_coordinator_can_lock_its_own_objects(self, session):
        fw, coord, a, b = session
        coord.request_lock("s")
        fw.run_for(0.5)
        assert "s" in coord.held_locks
        assert a.lock_owners["s"] == "coordinator"

    def test_release_unheld_is_noop(self, session):
        fw, coord, a, b = session
        a.release_lock("never-held")
        fw.run_for(0.5)
        assert a.held_locks == set()

    def test_stale_release_is_ignored_by_coordinator(self, session):
        fw, coord, a, b = session
        b.request_lock("s")
        fw.run_for(0.5)
        # alice never held it: a duplicate / stale release off the wire
        a._publish_event(LockReleaseEvent(client_id="alice", object_id="s"))
        fw.run_for(0.5)
        assert coord.whiteboard.locks.owner("s") == "bob"
        assert "s" in b.held_locks

    def test_two_objects_independent(self, session):
        fw, coord, a, b = session
        a.request_lock("x")
        b.request_lock("y")
        fw.run_for(0.5)
        assert "x" in a.held_locks
        assert "y" in b.held_locks

    def test_fifo_ordering_across_three_clients(self, session):
        fw, coord, a, b = session
        a.request_lock("s")
        fw.run_for(0.3)
        b.request_lock("s")
        fw.run_for(0.3)
        coord.request_lock("s")
        fw.run_for(0.3)
        a.release_lock("s")
        fw.run_for(0.3)
        assert "s" in b.held_locks
        b.release_lock("s")
        fw.run_for(0.3)
        assert "s" in coord.held_locks

    def test_leave_revokes_held_lock(self, session):
        """Sec. 2: a departing client's locks are revoked session-wide."""
        fw, coord, a, b = session
        a.request_lock("s")
        fw.run_for(0.5)
        assert a.lock_owners["s"] == "alice"
        a.leave()
        fw.run_for(0.5)
        for c in (coord, b):
            assert "s" not in c.lock_owners
        # the freed object is lockable again
        b.request_lock("s")
        fw.run_for(0.5)
        assert "s" in b.held_locks

    def test_leave_hands_lock_to_waiter(self, session):
        fw, coord, a, b = session
        a.request_lock("s")
        fw.run_for(0.5)
        b.request_lock("s")
        fw.run_for(0.5)
        assert "s" not in b.held_locks
        a.leave()
        fw.run_for(0.5)
        assert "s" in b.held_locks
        for c in (coord, b):
            assert c.lock_owners["s"] == "bob"

    def test_leave_purges_queued_requests(self, session):
        fw, coord, a, b = session
        a.request_lock("s")
        fw.run_for(0.3)
        b.request_lock("s")
        fw.run_for(0.3)
        b.leave()  # waiter departs before the grant
        fw.run_for(0.3)
        a.release_lock("s")
        fw.run_for(0.5)
        for c in (coord, a):
            assert "s" not in c.lock_owners  # nobody left to hand it to

    def test_no_coordinator_no_grants(self):
        fw = CollaborationFramework("anarchic")
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.3)
        a.request_lock("s")
        fw.run_for(0.5)
        assert a.held_locks == set()  # nobody arbitrates
