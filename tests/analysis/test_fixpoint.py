"""The call-graph fixpoints run to convergence on one worklist.

Return units, escape sets, hot loop contexts and reachability all run on
``passes.solve``; ``reference_fixpoint`` holds the round-robin-until-stable
versions they must equal, on random call DAGs and on the shipped tree.
"""

from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    build_call_graph,
    build_call_graph_from_sources,
    compute_escaping_exceptions,
    compute_return_units,
    dataflow_diagnostics,
    hot_contexts,
    hotpath,
)
from repro.analysis.passes import reachable, solve

from . import reference_fixpoint as reference

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def chain(depth: int) -> str:
    """A ``sock.on_receive`` callback whose ``WireError`` is raised
    ``depth`` calls below it, every caller defined before its callee."""
    lines = ["class WireError(Exception):", "    pass", "def deliver(data, src):"]
    lines.append("    hop1(data)" if depth else '    raise WireError("bad")')
    for i in range(1, depth + 1):
        lines.append(f"def hop{i}(data):")
        lines.append(f"    hop{i + 1}(data)" if i < depth else '    raise WireError("bad")')
    lines += ["def attach(sock):", "    sock.on_receive = deliver", ""]
    return "\n".join(lines)


def test_an_error_deep_below_a_callback_still_escapes_it():
    """Six sweeps once stopped the escape sets five calls down."""
    for depth in (0, 5, 6, 7, 12):
        graph = build_call_graph_from_sources([("pkg/chain.py", chain(depth))])
        assert [d.code for d in dataflow_diagnostics(graph)] == ["EXC001"], depth


def test_solve_queues_a_function_once_at_a_time():
    visits = []

    def visit(q):
        visits.append(q)
        return {"a": ["b", "b", "c"], "b": ["c"]}.get(q, [])

    solve(["a", "b", "a"], visit)
    assert visits == ["a", "b", "c"]


EXCEPTIONS = ("WireError", "RtpError", "ValueError", "KeyError")
PRELUDE = "class WireError(Exception):\n    pass\nclass RtpError(WireError):\n    pass\n"


@st.composite
def call_dags(draw):
    """Source of one module whose functions ``f0..fn`` call only higher
    numbers, defined in a random order (caller-first chains included)."""
    n = draw(st.integers(2, 9))
    bodies = {}
    for i in range(n):
        lines = []
        callees = draw(st.lists(st.integers(i + 1, n - 1), min_size=1, max_size=3)) if i < n - 1 else []
        for j in callees:
            call = f"f{j}(x_db, y_linear)"
            how = draw(st.sampled_from(["plain", "loop", "try"]))
            if how == "plain":
                lines.append(f"    {call}")
            elif how == "loop":
                lines += ["    for _ in y_linear:", f"        {call}"]
            else:
                caught = draw(st.sampled_from(EXCEPTIONS))
                handler = draw(st.sampled_from(["pass", "raise", 'raise KeyError("k")']))
                lines += ["    try:", f"        {call}", f"    except {caught}:", f"        {handler}"]
        raised = draw(st.sampled_from((None,) + EXCEPTIONS))
        if raised:
            lines += ["    if x_db:", f'        raise {raised}("e")']
        returns = ["x_db", "y_linear", "to_db(y_linear)"] if not callees else [
            f"f{j}(x_db, y_linear){tail}" for j in callees for tail in ("", "", " + x_db")
        ]
        for _ in range(draw(st.integers(0, 2))):
            lines.append(f"    return {draw(st.sampled_from(returns))}")
        bodies[i] = f"def f{i}(x_db, y_linear):\n" + "\n".join(lines or ["    pass"]) + "\n"
    order = draw(st.permutations(range(n)))
    return PRELUDE + "".join(bodies[i] for i in order)


#: a caller-first chain eight calls deep, in return units and escapes
DEEP = PRELUDE + "".join(
    f"def f{i}(x_db, y_linear):\n    return f{i + 1}(x_db, y_linear)\n" for i in range(8)
) + 'def f8(x_db, y_linear):\n    if x_db:\n        raise RtpError("e")\n    return to_db(y_linear)\n'


@settings(max_examples=150, deadline=None)
@given(call_dags())
@example(DEEP)
def test_worklist_equals_round_robin_on_call_dags(source):
    graph = build_call_graph_from_sources([("pkg/gen.py", source)])
    assert compute_escaping_exceptions(graph) == reference.escapes(graph)
    assert compute_return_units(graph) == reference.return_units(graph)
    assert reachable(graph, ["gen.f0"]) == reference.reachable(graph, ["gen.f0"])
    with mock.patch.object(hotpath, "HOT_ENTRY_SUFFIXES", ("f0",)):
        assert hot_contexts(graph) == reference.hot_contexts(graph)


def test_worklist_equals_round_robin_on_the_shipped_tree():
    graph = build_call_graph([str(SRC)])
    assert compute_escaping_exceptions(graph) == reference.escapes(graph)
    assert compute_return_units(graph) == reference.return_units(graph)
    assert hot_contexts(graph) == reference.hot_contexts(graph)
