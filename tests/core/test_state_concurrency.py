"""Tests for the state repository and concurrency control."""

from unittest import mock

from hypothesis import given, strategies as st

from repro.core import concurrency
from repro.core.concurrency import Arbiter
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
        assert [c.key for c in arb.conflicts] == ["x"]

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
