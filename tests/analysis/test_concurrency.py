"""Unit tests for the static lock-order/race verifier (DLK/RACE).

The golden corpus (``corpus_concurrency/``) pins whole-file behaviour;
these tests pin the analysis *mechanics*: lock identity, interprocedural
held-context propagation, scoped-fan-out vs free-thread labelling,
constructor exemption, and suppressions.
The hypothesis suite at the bottom pins the determinism contract:
cycle verdicts are invariant under edge insertion order.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    analyze_concurrency,
    build_call_graph,
    build_call_graph_from_sources,
    collect_locks,
    concurrency_diagnostics,
    find_cycles,
    lock_order_edges,
)


def graph_of(*sources):
    return build_call_graph_from_sources(
        [(f"mod{i}.py", src) for i, src in enumerate(sources)]
    )


def codes(diags):
    return sorted(d.code for d in diags)


class TestCollectLocks:
    def test_instance_module_and_class_body_locks(self):
        g = graph_of(
            """
import threading

GLOBAL_MU = threading.Lock()


class Box:
    CLASS_MU = threading.Lock()

    def __init__(self):
        self.mu = threading.RLock()
"""
        )
        locks = collect_locks(g)
        assert "mod0.GLOBAL_MU" in locks
        assert "Box.CLASS_MU" in locks
        assert "Box.mu" in locks
        assert locks["Box.mu"].reentrant
        assert not locks["Box.CLASS_MU"].reentrant

    def test_the_tree_builds_three_plain_locks_and_nests_none(self):
        """The runtime's locks, as the DLK/RACE family sees them: each a
        ``threading.Lock()``, none taken while another is held."""
        root = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
        g = build_call_graph([os.path.join(root, "src", "repro")])
        locks = collect_locks(g)
        assert {name: info.reentrant for name, info in locks.items()} == {
            "SemanticBus._attach_lock": False,
            "ShardedSemanticBus._attach_lock": False,
            "SnmpManager._mu": False,
        }
        assert lock_order_edges(g) == []


class TestLockOrderEdges:
    def test_nested_with_produces_edge(self):
        g = graph_of(
            """
import threading


class P:
    def __init__(self):
        self.a = threading.Lock()
        self.b = threading.Lock()

    def go(self):
        with self.a:
            with self.b:
                pass
"""
        )
        assert lock_order_edges(g) == [("P.a", "P.b")]

    def test_interprocedural_edge_through_helper(self):
        g = graph_of(
            """
import threading


class P:
    def __init__(self):
        self.a = threading.Lock()
        self.b = threading.Lock()

    def go(self):
        with self.a:
            self.helper()

    def helper(self):
        with self.b:
            pass
"""
        )
        assert lock_order_edges(g) == [("P.a", "P.b")]

    def test_acquire_release_pairs_tracked(self):
        g = graph_of(
            """
import threading


class P:
    def __init__(self):
        self.a = threading.Lock()
        self.b = threading.Lock()

    def go(self):
        self.a.acquire()
        self.a.release()
        with self.b:
            pass
"""
        )
        # a released before b: no edge
        assert lock_order_edges(g) == []


class TestDlkRules:
    def test_ab_ba_cycle_fires_dlk001(self):
        g = graph_of(
            """
import threading


class P:
    def __init__(self):
        self.a = threading.Lock()
        self.b = threading.Lock()

    def fwd(self):
        with self.a:
            with self.b:
                pass

    def rev(self):
        with self.b:
            with self.a:
                pass
"""
        )
        assert "DLK001" in codes(concurrency_diagnostics(g))

    def test_reentrant_self_acquire_is_clean(self):
        g = graph_of(
            """
import threading


class P:
    def __init__(self):
        self.mu = threading.RLock()

    def outer(self):
        with self.mu:
            self.inner()

    def inner(self):
        with self.mu:
            pass
"""
        )
        assert codes(concurrency_diagnostics(g)) == []

    def test_cross_class_nesting_fires_dlk002(self):
        g = graph_of(
            """
import threading


class Inner:
    def __init__(self):
        self.mu = threading.Lock()

    def touch(self):
        with self.mu:
            pass


class Outer:
    def __init__(self):
        self.mu = threading.Lock()
        self.inner = Inner()

    def go(self):
        with self.mu:
            self.inner.touch()
"""
        )
        assert "DLK002" in codes(concurrency_diagnostics(g))

    def test_partially_guarded_field_fires_dlk003(self):
        g = graph_of(
            """
import threading


class C:
    def __init__(self):
        self.mu = threading.Lock()
        self.n = 0

    def add(self):
        with self.mu:
            self.n += 1

    def reset(self):
        self.n = 0
"""
        )
        diags = concurrency_diagnostics(g)
        assert codes(diags) == ["DLK003"]
        assert diags[0].subject.endswith("reset")

    def test_constructor_writes_exempt(self):
        g = graph_of(
            """
import threading


class C:
    def __init__(self):
        self.mu = threading.Lock()
        self.n = 0
        self._init_more()

    def _init_more(self):
        self.n = 1

    def add(self):
        with self.mu:
            self.n += 1
"""
        )
        assert codes(concurrency_diagnostics(g)) == []


class TestRaceRules:
    THREADED_WRITER = """
import threading


class T:
    def __init__(self):
        self.n = 0

    def worker(self):
        self.n += 1

    def start(self):
        threading.Thread(target=self.worker).start()

    def reset(self):
        self.n = 0
"""

    def test_thread_plus_main_write_fires_race001(self):
        g = graph_of(self.THREADED_WRITER)
        assert "RACE001" in codes(concurrency_diagnostics(g))

    def test_scoped_fanout_does_not_fire_race001(self):
        # submit target only ever dispatched with the submitter holding
        # the lock and blocking on the future: serialized, not a race
        g = graph_of(
            """
import threading
from concurrent.futures import ThreadPoolExecutor


class B:
    def __init__(self):
        self.mu = threading.Lock()
        self.pool = ThreadPoolExecutor(2)
        self.n = 0

    def worker(self):
        self.n += 1

    def publish(self):
        with self.mu:
            f = self.pool.submit(self.worker)
            f.result()

    def reset(self):
        with self.mu:
            self.n = 0
"""
        )
        assert "RACE001" not in codes(concurrency_diagnostics(g))

    def test_unguarded_lazy_init_fires_race002(self):
        g = graph_of(
            """
import threading


class H:
    def __init__(self):
        self.mu = threading.Lock()
        self.pool = None

    def ensure(self):
        if self.pool is None:
            self.pool = object()
        return self.pool
"""
        )
        assert "RACE002" in codes(concurrency_diagnostics(g))

    def test_double_checked_lazy_init_is_clean(self):
        g = graph_of(
            """
import threading


class H:
    def __init__(self):
        self.mu = threading.Lock()
        self.pool = None

    def ensure(self):
        with self.mu:
            if self.pool is None:
                self.pool = object()
            return self.pool
"""
        )
        assert codes(concurrency_diagnostics(g)) == []

    def test_check_then_act_fires_race003(self):
        g = graph_of(
            """
import threading


class R:
    def __init__(self):
        self.mu = threading.Lock()
        self.d = {}

    def claim(self, k):
        if k in self.d:
            return self.d.pop(k)
        return None
"""
        )
        assert "RACE003" in codes(concurrency_diagnostics(g))

    def test_suppression_comment_silences(self):
        g = graph_of(
            """
import threading


class R:
    def __init__(self):
        self.mu = threading.Lock()
        self.d = {}

    def claim(self, k):
        if k in self.d:  # repro: ignore[RACE003]
            return self.d.pop(k)
        return None
"""
        )
        assert "RACE003" not in codes(concurrency_diagnostics(g))

    def test_snmp_poll_is_not_a_thread_root(self):
        """Nothing runs ``NetworkStateInterface.poll`` on a thread, so its
        writes, driven from the main surface and from a test, are no race."""
        root = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
        found = analyze_concurrency(
            [os.path.join(root, "src", "repro"), os.path.join(root, "tests", "core", "test_netstate.py")]
        )
        assert [
            (d.code, d.line) for d in found if d.code == "RACE001" and d.file.endswith("netstate.py")
        ] == []


# ----------------------------------------------------------------------
# determinism property: find_cycles is invariant under edge insertion
# order (the merged-report ordering contract rides on this)
# ----------------------------------------------------------------------
_nodes = st.sampled_from(["a", "b", "c", "d", "e"])
_edges = st.lists(st.tuples(_nodes, _nodes), min_size=0, max_size=12)


class TestFindCyclesProperty:
    @given(edges=_edges, seed=st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_verdict_invariant_under_insertion_order(self, edges, seed):
        shuffled = list(edges)
        seed.shuffle(shuffled)
        assert find_cycles(shuffled) == find_cycles(edges)

    @given(edges=_edges)
    @settings(max_examples=200, deadline=None)
    def test_every_reported_cycle_is_cyclic(self, edges):
        adj = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
        for cycle in find_cycles(edges):
            members = set(cycle)
            if len(cycle) == 1:
                assert cycle[0] in adj.get(cycle[0], set()) or (
                    cycle[0],
                    cycle[0],
                ) in edges
                continue
            # within the SCC every member reaches every other
            for start in members:
                seen = set()
                frontier = [start]
                while frontier:
                    v = frontier.pop()
                    for w in adj.get(v, ()):  # noqa: B007
                        if w in members and w not in seen:
                            seen.add(w)
                            frontier.append(w)
                assert members <= seen | {start}

    def test_duplicate_edges_collapse(self):
        assert find_cycles([("a", "b"), ("a", "b"), ("b", "a")]) == [("a", "b")]
