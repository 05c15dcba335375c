"""Lock revocation on leave (TSP003) over the project call graph.

The cooperative object locks of the collaboration substrate follow
request → grant → release, and a client that leaves the session must
not keep what it was granted.  TSP003 checks that obligation
statically: a class whose methods drive the lock manager and handle
``LeaveEvent`` must reach ``drop_client`` on some path from that
handler — reachability over the call graph, not a per-statement walk.

The rule found and forced the fix of a real bug (``WiredClient`` left
departed clients' locks granted forever).  It reports through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model, so
``# repro: ignore[TSP003]`` suppressions, severity gating, baseline
fingerprints, and SARIF all apply.
"""

from __future__ import annotations

import ast
from typing import Optional

from .callgraph import CallGraph, FunctionInfo, rightmost_name
from .diagnostics import Diagnostic
from .passes import diag, graph_entry_points, reachable

__all__ = [
    "typestate_findings",
    "typestate_diagnostics",
    "analyze_typestate",
]


def _lock_using_classes(graph: CallGraph) -> set[str]:
    """Classes with a method that calls the lock manager."""
    out: set[str] = set()
    for site in graph.calls:
        if site.method not in ("acquire", "release", "drop_client"):
            continue
        if site.recv_type == "LockManager" or ".locks." in site.func_repr:
            fn = graph.functions.get(site.caller)
            if fn is not None and fn.cls is not None:
                out.add(fn.cls)
    return out


def _leave_test(fn: FunctionInfo) -> Optional[ast.AST]:
    """The ``isinstance(x, LeaveEvent)`` test in ``fn``, if any."""
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and rightmost_name(node.func) == "isinstance"
            and len(node.args) == 2
            and rightmost_name(node.args[1]) == "LeaveEvent"
        ):
            return node
    return None


def typestate_findings(graph: CallGraph) -> list[Diagnostic]:
    """Raw TSP003 findings over an already-built call graph."""
    diags: list[Diagnostic] = []
    lock_classes = _lock_using_classes(graph)
    if not lock_classes:
        return diags
    for fn in graph.functions.values():
        if fn.cls not in lock_classes or fn.cls == "LockManager":
            continue
        node = _leave_test(fn)
        if node is None:
            continue
        if not any(
            site.method == "drop_client"
            for q in reachable(graph, [fn.qualname])
            for site in graph.calls_from(q)
        ):
            diags.append(
                diag(
                    "TSP003",
                    f"{fn.cls} handles LeaveEvent without revoking the"
                    " departed client's locks (no drop_client on any"
                    " path from this handler)",
                    fn.qualname,
                    fn.path,
                    node,
                )
            )
    return diags


#: ``typestate_diagnostics(graph, *, ignore=())`` / ``analyze_typestate(paths,
#: *, ignore=())``: the findings above with suppressions applied
typestate_diagnostics, analyze_typestate = graph_entry_points(typestate_findings)
