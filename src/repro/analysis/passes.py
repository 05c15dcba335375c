"""The pass framework every rule family is written against.

A *family* is one row of :data:`repro.analysis.runner.FAMILIES`: a name
(the ``--profile`` label and cache key), a scope, the rule-code prefixes
it owns, and a producer of raw findings — ``produce(source, path)`` for
a per-file family, ``produce(graph)`` for a family over the project
:class:`~repro.analysis.callgraph.CallGraph`.  Producers never look at
``# repro: ignore`` comments or ``--ignore``: :func:`suppressed` is the
one place findings are filtered, so the runner parses each file's
suppressions once per run no matter how many families report into it.

What the graph families share lives here rather than in each of them:

* :func:`delivery_registrations` — the one scan for "this function is
  handed to a dispatch boundary as a delivery callback", over the one
  table of registration slots (:data:`DELIVERY_CALLBACK_KWARGS`,
  :data:`DELIVERY_CALLBACK_POSITIONS`).  EXC001 checks what escapes the
  registered callbacks, RACE001–003 label them as concurrency roots.
* :func:`solve` — the one worklist every call-graph fixpoint runs on
  (return units, escape sets, hot loop contexts, reachability): it
  revisits a function only when something it reads has changed, and
  stops only when nothing has, so no call chain is cut off.
* :func:`reachable` — forward closure over resolved call edges (root
  labels for RACE).
* :func:`diag`, :data:`MUTATING_METHODS`, :func:`resolve_callback_ref`.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    build_call_graph,
    read_source,
    rightmost_name,
    walk_py_files,
)
from .diagnostics import Diagnostic, filter_diagnostics, parse_suppressions, rule_severity

__all__ = [
    "Family",
    "suppressed",
    "suppression_lookup",
    "file_entry_points",
    "graph_entry_points",
    "diag",
    "DELIVERY_CALLBACK_KWARGS",
    "DELIVERY_CALLBACK_POSITIONS",
    "MUTATING_METHODS",
    "is_container_value",
    "Registration",
    "bus_like_receiver",
    "resolve_callback_ref",
    "delivery_registrations",
    "solve",
    "reachable",
]


# ======================================================================
# families and the one suppression step
# ======================================================================
#: anything mapping (source, path) / a graph / paths to a list of findings
Producer = Callable[..., list[Diagnostic]]


@dataclass(frozen=True)
class Family:
    """One rule family (a row of :data:`repro.analysis.runner.FAMILIES`)."""

    name: str  #: ``--profile`` label
    scope: str  #: ``"file"``: produce(source, path); ``"graph"``: produce(graph)
    prefixes: tuple[str, ...]  #: rule-code prefixes this family owns
    produce: Producer  #: raw, unsuppressed findings


Suppressions = Mapping[int, frozenset[str]]


def suppression_lookup(
    source_of: Callable[[str], Optional[str]],
) -> Callable[[str], Optional[Suppressions]]:
    """``path -> that file's inline suppressions`` from ``source_of(path)``
    (None: not an analyzed file), parsed on first use — a clean tree never
    has its ``# repro: ignore`` comments parsed."""
    parsed: dict[str, Optional[Suppressions]] = {}

    def lookup(path: str) -> Optional[Suppressions]:
        if path not in parsed:
            source = source_of(path)
            parsed[path] = parse_suppressions(source) if source is not None else None
        return parsed[path]

    return lookup


def suppressed(
    diags: Iterable[Diagnostic],
    lookup: Callable[[str], Optional[Suppressions]],
    ignore: Iterable[str],
) -> list[Diagnostic]:
    """Drop findings silenced by ``ignore`` or by an inline suppression in
    the file they point at (``lookup(path)`` gives that file's)."""
    ignore = tuple(ignore)
    out: list[Diagnostic] = []
    for d in diags:
        out.extend(
            filter_diagnostics([d], ignore=ignore, suppressions=lookup(d.file or ""))
        )
    return out


def file_entry_points(produce: Producer) -> tuple[Producer, Producer, Producer]:
    """The three public fronts of a per-file family: ``from_source(source,
    path, *, ignore=())``, ``from_file(path, *, ignore=())`` and
    ``from_paths(paths, *, ignore=())``; all end in :func:`suppressed`."""

    def from_source(source: str, path: str, *, ignore: Iterable[str] = ()) -> list[Diagnostic]:
        raw = produce(source, path)
        return suppressed(raw, suppression_lookup({path: source}.get), ignore)

    def from_file(path: str, *, ignore: Iterable[str] = ()) -> list[Diagnostic]:
        return from_source(read_source(path), path, ignore=ignore)

    def from_paths(paths: Iterable[str], *, ignore: Iterable[str] = ()) -> list[Diagnostic]:
        ignore = tuple(ignore)
        return [d for path in walk_py_files(paths) for d in from_file(path, ignore=ignore)]

    return from_source, from_file, from_paths


def graph_entry_points(produce: Producer) -> tuple[Producer, Producer]:
    """The two public fronts of a graph family: ``diagnostics(graph, *,
    ignore=())`` over an already-built graph and ``analyze(paths, *,
    ignore=())`` building it first; both end in :func:`suppressed`."""

    def diagnostics(graph: CallGraph, *, ignore: Iterable[str] = ()) -> list[Diagnostic]:
        return suppressed(produce(graph), suppression_lookup(graph.sources.get), ignore)

    def analyze(paths: Iterable[str], *, ignore: Iterable[str] = ()) -> list[Diagnostic]:
        return diagnostics(build_call_graph(paths), ignore=ignore)

    return diagnostics, analyze


def diag(code: str, message: str, subject: str, path: str, node: ast.AST) -> Diagnostic:
    """A finding of rule ``code`` located at ``node`` in ``path``."""
    return Diagnostic(
        code,
        rule_severity(code),
        message,
        subject=subject,
        file=path,
        line=getattr(node, "lineno", None),
        column=getattr(node, "col_offset", -1) + 1 if hasattr(node, "col_offset") else None,
    )


# ======================================================================
# delivery-callback registrations
# ======================================================================
#: kwarg / attribute names whose value is a delivery/receive callback
DELIVERY_CALLBACK_KWARGS = frozenset({"on_receive", "on_delivery", "on_payload"})

#: callable short name -> positional indices carrying a delivery callback
DELIVERY_CALLBACK_POSITIONS: dict[str, tuple[int, ...]] = {
    "RtpReassembler": (0,),
    "SemanticEndpoint": (4,),
    "UnicastSemanticLink": (2,),
    "TrapListener": (2,),
}

#: container methods that mutate in place (a call on a shared container
#: counts as a write: DLK003, RACE001/RACE003)
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "update",
        "add",
        "setdefault",
    }
)


#: constructors of the mutable containers those methods act on
_CONTAINER_CTORS = frozenset(
    {"dict", "list", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)


def is_container_value(value: ast.expr) -> bool:
    """Whether ``value`` builds a mutable container (display,
    comprehension or constructor call): RACE003's shared-container
    fields."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    return isinstance(value, ast.Call) and rightmost_name(value.func) in _CONTAINER_CTORS


@dataclass(frozen=True)
class Registration:
    """One callback handed to a delivery boundary."""

    target: str  #: qualname of the registered callback
    registrar: FunctionInfo  #: the function doing the registering
    node: ast.AST  #: the registering assignment or call


def resolve_callback_ref(
    expr: ast.expr, fn: FunctionInfo, graph: CallGraph
) -> Optional[str]:
    """Qualname of a function referenced (not called) by ``expr``."""
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self" and fn.cls is not None:
            return graph.method_qualname(fn.cls, expr.attr)
    if isinstance(expr, ast.Name):
        q = f"{fn.module}.{expr.id}"
        if q in graph.functions:
            return q
    return None


def bus_like_receiver(site: CallSite) -> bool:
    """Receiver typed SemanticBus, or textually named like a bus."""
    if site.recv_type == "SemanticBus":
        return True
    parts = site.func_repr.split(".")
    if len(parts) < 2:
        return False
    return parts[-2].lower().endswith("bus")


def delivery_registrations(graph: CallGraph) -> list[Registration]:
    """Every resolvable callback registered on a delivery boundary:
    ``x.on_receive = cb``, ``f(on_delivery=cb)``, a positional slot of
    :data:`DELIVERY_CALLBACK_POSITIONS`, and the callback argument of
    ``bus.attach(profile, cb)`` (a receiver not typed or named as a bus
    is some other attach protocol).
    """
    out: list[Registration] = []
    for fn in graph.functions.values():
        sites = graph.sites_by_node(fn.qualname)
        for node in ast.walk(fn.node):
            refs: list[ast.expr] = []
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and node.targets[0].attr in DELIVERY_CALLBACK_KWARGS
            ):
                refs.append(node.value)
            elif isinstance(node, ast.Call):
                refs.extend(
                    kw.value for kw in node.keywords if kw.arg in DELIVERY_CALLBACK_KWARGS
                )
                name = rightmost_name(node.func) or ""
                refs.extend(
                    node.args[pos]
                    for pos in DELIVERY_CALLBACK_POSITIONS.get(name, ())
                    if len(node.args) > pos
                )
                if name == "attach" and len(node.args) > 1:
                    site = sites.get(id(node))
                    if site is not None and bus_like_receiver(site):
                        refs.append(node.args[1])
            for ref in refs:
                target = resolve_callback_ref(ref, fn, graph)
                if target is not None:
                    out.append(Registration(target, fn, node))
    return out


# ======================================================================
# call-graph fixpoints
# ======================================================================
def solve(work: Iterable[str], visit: Callable[[str], Iterable[str]]) -> None:
    """Visit functions until nothing is left to revisit.

    ``visit(q)`` recomputes what the analysis knows at ``q`` and returns
    the functions that read what changed: the callers of ``q`` when its
    own summary changed (bottom-up summaries), or the callees whose value
    it raised (top-down propagation).  A function sits in the queue at
    most once; the loop ends when a visit of every function would change
    nothing, which on a finite lattice it does.
    """
    queue = deque(dict.fromkeys(work))
    queued = set(queue)
    while queue:
        q = queue.popleft()
        queued.discard(q)
        for r in visit(q):
            if r not in queued:
                queued.add(r)
                queue.append(r)


def reachable(graph: CallGraph, roots: Iterable[str]) -> set[str]:
    """Functions reachable from ``roots`` over resolved call edges
    (the roots themselves included when they are in the graph)."""
    seen = {r for r in roots if r in graph.functions}

    def visit(q: str) -> set[str]:
        fresh = graph.callees_of(q).intersection(graph.functions) - seen
        seen.update(fresh)
        return fresh

    solve(seen, visit)
    return seen
