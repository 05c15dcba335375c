"""Tests for the state repository and concurrency control."""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core import concurrency
from repro.core.concurrency import Arbiter, LockError, LockManager
from repro.core.state import StateEntry, StateRepository


class TestRepository:
    def test_put_bumps_version(self):
        repo = StateRepository()
        e1 = repo.put("k", 1, timestamp=0.1, author="a")
        e2 = repo.put("k", 2, timestamp=0.2, author="a")
        assert (e1.version, e2.version) == (1, 2)

    def test_get_missing(self):
        assert StateRepository().get("nope") is None

    def test_keys_sorted_and_iter(self):
        repo = StateRepository()
        repo.put("b", 1, 0.0, "a")
        repo.put("a", 2, 0.0, "a")
        assert repo.keys() == ["a", "b"]
        assert [e.key for e in repo] == ["a", "b"]
        assert len(repo) == 2

    def test_listener_notified(self):
        repo = StateRepository()
        calls = []
        repo.subscribe(lambda new, old: calls.append((new.value, old)))
        repo.put("k", 1, 0.0, "a")
        repo.put("k", 2, 0.1, "a")
        assert calls[0] == (1, None)
        assert calls[1][0] == 2 and calls[1][1].value == 1


class TestRemoteMerge:
    def test_higher_version_wins(self):
        repo = StateRepository()
        repo.put("k", "old", 0.0, "a")  # version 1
        assert repo.apply_remote(StateEntry("k", "new", 2, 0.0, "b"))
        assert repo.get("k").value == "new"

    def test_lower_version_loses(self):
        repo = StateRepository()
        repo.put("k", "v", 0.5, "a")
        repo.put("k", "v2", 0.6, "a")  # version 2
        assert not repo.apply_remote(StateEntry("k", "stale", 1, 99.0, "b"))
        assert repo.get("k").value == "v2"
        assert repo.updates_rejected == 1

    def test_timestamp_breaks_version_tie(self):
        repo = StateRepository()
        repo.apply_remote(StateEntry("k", "early", 1, 1.0, "a"))
        assert repo.apply_remote(StateEntry("k", "late", 1, 2.0, "b"))
        assert repo.get("k").value == "late"

    def test_author_breaks_full_tie(self):
        repo = StateRepository()
        repo.apply_remote(StateEntry("k", "from-a", 1, 1.0, "alice"))
        assert repo.apply_remote(StateEntry("k", "from-b", 1, 1.0, "bob"))
        assert repo.get("k").value == "from-b"  # 'bob' > 'alice'

    @given(st.permutations([
        StateEntry("k", f"v{i}", v, t, a)
        for i, (v, t, a) in enumerate([(1, 1.0, "x"), (1, 2.0, "y"), (2, 0.5, "z")])
    ]))
    def test_merge_order_independent(self, entries):
        """LWW must converge to the same winner for any arrival order."""
        repo = StateRepository()
        for e in entries:
            repo.apply_remote(e)
        assert repo.get("k").value == "v2"  # version 2 dominates


class TestArbiter:
    def test_conflict_recorded_not_lost(self):
        repo = StateRepository()
        arb = Arbiter(repo)
        arb.submit(StateEntry("obj", "from-a", 1, 1.0, "alice"))
        arb.submit(StateEntry("obj", "from-b", 1, 1.0, "bob"))
        assert repo.get("obj").value == "from-b"
        assert len(arb.conflicts) == 1
        c = arb.conflicts[0]
        assert c.winner.value == "from-b"
        assert c.loser.value == "from-a"

    def test_non_conflicting_updates_no_record(self):
        repo = StateRepository()
        arb = Arbiter(repo)
        arb.submit(StateEntry("obj", "v1", 1, 1.0, "a"))
        arb.submit(StateEntry("obj", "v2", 2, 2.0, "a"))
        assert list(arb.conflicts) == []

    def test_conflicts_for_key(self):
        repo = StateRepository()
        arb = Arbiter(repo)
        arb.submit(StateEntry("x", "1", 1, 1.0, "a"))
        arb.submit(StateEntry("x", "2", 1, 1.0, "b"))
        arb.submit(StateEntry("y", "3", 1, 1.0, "a"))
        assert len(arb.conflicts_for("x")) == 1
        assert arb.conflicts_for("y") == []

    def test_history_bounded_with_overflow_counter(self):
        """The cap evicts oldest records but the total stays accountable."""
        repo = StateRepository()
        with mock.patch.object(concurrency, "MAX_CONFLICTS", 3):
            arb = Arbiter(repo)
        for i in range(5):
            arb.submit(StateEntry(f"k{i}", "a", 1, 1.0, "alice"))
            arb.submit(StateEntry(f"k{i}", "b", 1, 1.0, "bob"))
        assert len(arb.conflicts) == 3
        assert arb.conflicts_dropped == 2
        assert arb.total_conflicts == 5
        # newest records survive, oldest were evicted
        assert [c.key for c in arb.conflicts] == ["k2", "k3", "k4"]

    def test_default_cap_is_generous(self):
        repo = StateRepository()
        arb = Arbiter(repo)
        assert arb.conflicts.maxlen == concurrency.MAX_CONFLICTS >= 1024


class TestLockManager:
    def test_acquire_free_lock(self):
        lm = LockManager()
        assert lm.acquire("wb/s1", "alice")
        assert lm.owner("wb/s1") == "alice"

    def test_reentrant(self):
        lm = LockManager()
        lm.acquire("k", "a")
        assert lm.acquire("k", "a")

    def test_contention_queues_fifo(self):
        lm = LockManager()
        lm.acquire("k", "a")
        assert not lm.acquire("k", "b")
        assert not lm.acquire("k", "c")
        assert lm.release("k", "a") == "b"
        assert lm.release("k", "b") == "c"
        assert lm.release("k", "c") is None
        assert lm.owner("k") is None

    def test_double_queue_request_ignored(self):
        lm = LockManager()
        lm.acquire("k", "a")
        lm.acquire("k", "b")
        lm.acquire("k", "b")
        assert lm.release("k", "a") == "b"
        assert lm.release("k", "b") is None

    def test_release_without_ownership_raises(self):
        lm = LockManager()
        with pytest.raises(LockError):
            lm.release("k", "nobody")

    def test_drop_client_releases_and_dequeues(self):
        lm = LockManager()
        lm.acquire("k1", "a")
        lm.acquire("k2", "a")
        lm.acquire("k1", "b")
        changed = lm.drop_client("a")
        assert ("k1", "b") in changed
        assert ("k2", None) in changed
        assert lm.owner("k1") == "b"

    def test_drop_waiting_client(self):
        lm = LockManager()
        lm.acquire("k", "a")
        lm.acquire("k", "b")
        lm.drop_client("b")
        assert lm.release("k", "a") is None


# ----------------------------------------------------------------------
# LockManager property test: arbitrary interleavings of request /
# release / leave preserve the paper's Sec. 2 lock invariants.
# ----------------------------------------------------------------------
CLIENTS = ("alice", "bob", "carol")
KEYS = ("wb/s1", "wb/s2")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), st.sampled_from(KEYS), st.sampled_from(CLIENTS)),
        st.tuples(st.just("release"), st.sampled_from(KEYS), st.sampled_from(CLIENTS)),
        st.tuples(st.just("leave"), st.just(""), st.sampled_from(CLIENTS)),
    ),
    max_size=40,
)


class _LockModel:
    """Reference model: owner + FIFO queue per key, pure Python lists."""

    def __init__(self):
        self.owner = {}
        self.queue = {k: [] for k in KEYS}

    def acquire(self, key, client):
        if self.owner.get(key) in (None, client):
            self.owner[key] = client
            return True
        if client not in self.queue[key]:
            self.queue[key].append(client)
        return False

    def release(self, key, client):
        assert self.owner.get(key) == client
        if self.queue[key]:
            nxt = self.queue[key].pop(0)
            self.owner[key] = nxt
            return nxt
        del self.owner[key]
        return None

    def leave(self, client):
        for key in KEYS:
            if client in self.queue[key]:
                self.queue[key].remove(client)
        for key in list(self.owner):
            if self.owner[key] == client:
                self.release(key, client)


@given(_ops)
def test_lockmanager_interleavings_match_model(ops):
    """Grants follow request order, tie-breaks deterministically, and
    leave revokes — for every interleaving, against a reference model."""
    lm = LockManager()
    model = _LockModel()
    for op, key, client in ops:
        if op == "acquire":
            assert lm.acquire(key, client) == model.acquire(key, client)
        elif op == "release":
            if model.owner.get(key) == client:
                assert lm.release(key, client) == model.release(key, client)
            else:
                with pytest.raises(LockError):
                    lm.release(key, client)
        else:
            got = dict(lm.drop_client(client))
            model.leave(client)
            for changed_key, new_owner in got.items():
                assert model.owner.get(changed_key) == new_owner
        for k in KEYS:
            assert lm.owner(k) == model.owner.get(k)


@given(_ops)
def test_lockmanager_determinism(ops):
    """Same interleaving twice -> identical grants and final owners."""
    results = []
    for _ in range(2):
        lm = LockManager()
        trace = []
        for op, key, client in ops:
            if op == "acquire":
                trace.append(lm.acquire(key, client))
            elif op == "release":
                try:
                    trace.append(lm.release(key, client))
                except LockError:
                    trace.append("error")
            else:
                trace.append(tuple(lm.drop_client(client)))
        results.append((trace, {k: lm.owner(k) for k in KEYS}))
    assert results[0] == results[1]
