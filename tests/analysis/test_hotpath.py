"""Unit and property tests for the PERF hot-path analyzer.

The golden corpus under ``corpus_perf`` pins the rules' end-to-end
behaviour on realistic files; the tests here exercise the machinery at a
finer grain — loop-context propagation across calls, the exemptions each
rule promises (cache layer, suppressions), and the determinism of the
analyzer itself: verdicts must not depend on the order modules are fed
to it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    build_call_graph_from_sources,
    hot_contexts,
    perf_diagnostics,
)
from repro.core.selectors import parse


def graph_for(*named_sources):
    return build_call_graph_from_sources(list(named_sources))


def perf_codes(*named_sources):
    return {d.code for d in perf_diagnostics(graph_for(*named_sources))}


# ----------------------------------------------------------------------
# loop-context propagation
# ----------------------------------------------------------------------
def test_hot_context_propagates_through_calls():
    graph = graph_for(
        (
            "src/pkg/bus.py",
            "def deliver(sub, msg):\n"
            "    sub.push(msg)\n"
            "class SemanticBus:\n"
            "    def publish(self, msg):\n"
            "        for sub in self.shortlist(msg):\n"
            "            deliver(sub, msg)\n",
        ),
    )
    contexts = hot_contexts(graph)
    publishers = {q: d for q, d in contexts.items() if q.endswith("publish")}
    delivers = {q: d for q, d in contexts.items() if q.endswith("deliver")}
    assert set(publishers.values()) == {0}
    # deliver() is called from inside publish's loop: one loop deeper
    assert set(delivers.values()) == {1}


def test_cold_functions_have_no_context():
    graph = graph_for(
        ("src/pkg/m.py", "def helper(xs):\n    for x in xs:\n        use(x)\n")
    )
    assert "helper" not in {q.rsplit(".", 1)[-1] for q in hot_contexts(graph)}


# ----------------------------------------------------------------------
# PERF exemptions the rules promise
# ----------------------------------------------------------------------
def test_perf001_fires_on_population_scan_and_respects_suppression():
    src = (
        "class SemanticBus:\n"
        "    def publish(self, msg):\n"
        "        for sub in self._subs:\n"
        "            sub.push(msg)\n"
    )
    assert "PERF001" in perf_codes(("src/pkg/bus.py", src))
    suppressed = src.replace(
        "for sub in self._subs:", "for sub in self._subs:  # repro: ignore[PERF001]"
    )
    assert "PERF001" not in perf_codes(("src/pkg/bus.py", suppressed))


def test_perf004_exempts_the_cache_layer():
    src = (
        "class SemanticBus:\n"
        "    def publish(self, msg):\n"
        "        return Selector(msg.text)\n"
    )
    assert "PERF004" in perf_codes(("src/pkg/bus.py", src))
    # the same construction inside the cache layer itself is the fix, not a bug
    assert "PERF004" not in perf_codes(("src/repro/core/selectors.py", src))


# ----------------------------------------------------------------------
# determinism of the analyzer itself
# ----------------------------------------------------------------------
_MODULES = [
    (
        "src/pkg/bus.py",
        "from pkg.fanout import deliver\n"
        "class SemanticBus:\n"
        "    def publish(self, msg):\n"
        "        for sub in self._subs:\n"
        "            deliver(sub, msg)\n",
    ),
    (
        "src/pkg/fanout.py",
        "def deliver(sub, msg):\n"
        "    for hook in sub.hooks:\n"
        "        hook(compile_selector(msg.text))\n",
    ),
    (
        "src/pkg/net.py",
        "class Network:\n"
        "    def send(self, pkt):\n"
        "        return [n.name for n in self.nodes]\n",
    ),
    ("src/pkg/util.py", "def cold(xs):\n    return sorted(xs)\n"),
]


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(_MODULES))
def test_perf_verdicts_invariant_under_module_order(order):
    """The PERF finding multiset must not depend on analysis input order."""
    baseline = sorted(
        (d.code, d.file, d.line) for d in perf_diagnostics(graph_for(*_MODULES))
    )
    assert {code for code, _, _ in baseline} == {"PERF001", "PERF004"}
    permuted = sorted(
        (d.code, d.file, d.line) for d in perf_diagnostics(graph_for(*order))
    )
    assert permuted == baseline


# ----------------------------------------------------------------------
# the analyzer-driven fix: cached selector parsing
# ----------------------------------------------------------------------
def test_parse_is_cached_by_text():
    parse.cache_clear()
    a = parse("role == 'medic' and tier >= 2")
    b = parse("role == 'medic' and tier >= 2")
    assert a is b
    assert parse("role == 'scout'") is not a
