"""Hot-path cost (PERF) verification.

The dispatch fabric's *per-packet cost* must stay sublinear in the
population (the whole point of the indexed/sharded brokers), and nothing
structural stops a change from hiding an ``O(N)`` scan three calls below
``publish()``.  This pass checks it statically, over the same project
call graph the dataflow and concurrency passes walk.

**Interprocedural loop-cost propagation.**  A registry of per-packet /
per-message entry points (:data:`HOT_ENTRY_SUFFIXES` — ``Network.send``,
``SemanticBus.publish``/``publish_many``, the sharded batch broker,
``RtpReassembler.ingest``, the SNMP poll loop, and the attach-path
population churners) seeds a forward closure over resolved call edges.
Each reachable function gets a *loop context*: the maximum number of
enclosing loops accumulated along any call chain from an entry (a call
made inside a ``for`` adds one) — context 0 runs once per packet,
context 1 once per candidate per packet, and so on.  The rules:

* **PERF001** — population-sized scan or copy (iteration over, or
  ``list()``/``sorted()``/``tuple()``/``set()`` of, a name in
  :data:`POPULATION_NAMES`) anywhere on a hot path.
* **PERF004** — loop-invariant pure calls in hot loops (every argument
  constant or unassigned in the loop), and uncached
  ``Selector(text)`` construction on a hot path outside the caching
  layer — re-parsing identical selector text per call.

Everything reports through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model, so
``# repro: ignore[PERF001]`` suppressions, ``--ignore``, baseline
fingerprints, and SARIF rendering all apply unchanged.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from .callgraph import CallGraph, FunctionInfo, matches_suffix, rightmost_name
from .diagnostics import Diagnostic
from .passes import diag, graph_entry_points

__all__ = [
    "HOT_ENTRY_SUFFIXES",
    "POPULATION_NAMES",
    "PURE_CALLABLES",
    "hot_contexts",
    "perf_findings",
    "perf_diagnostics",
    "analyze_hotpath",
]


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
#: Per-packet / per-message entry points (qualname suffixes, matched as
#: ``Class.method`` or bare function name).  The first block runs once
#: per message on the datapath; the second runs once per subscription on
#: the attach path, which at fleet scale is packet-rate population churn
#: (``sharded_attach_per_s`` is a committed trajectory metric).
HOT_ENTRY_SUFFIXES: tuple[str, ...] = (
    "Network.send",
    "Network.cast",
    "MulticastFabric.cast",
    "SemanticBus.publish",
    "SemanticBus.publish_many",
    "ShardedSemanticBus.publish",
    "ShardedSemanticBus.publish_many",
    "RtpReassembler.ingest",
    "NetworkStateInterface.poll",
    # attach-path population churn
    "SemanticBus.attach",
    "ShardedSemanticBus.attach",
    "MatchingEngine.add",
    "ClientProfile.__init__",
    "ClientProfile.set_interest",
)

#: Attribute/variable names that hold population-sized collections
#: (subscribers, clients, links...).  Scanning one of these per packet
#: is exactly the O(N) the indexed brokers exist to avoid.
POPULATION_NAMES: frozenset[str] = frozenset(
    {
        "subs",
        "_subs",
        "subscribers",
        "_subscribers",
        "clients",
        "_clients",
        "profiles",
        "_profiles",
        "links",
        "_links",
        "nodes",
        "_nodes",
        "members",
        "_members",
        "subscriptions",
        "_subscriptions",
        "_partial",
        "population",
    }
)

#: Known-pure callables whose result depends only on their arguments:
#: calling one in a loop with loop-invariant arguments re-does the same
#: work every iteration.
PURE_CALLABLES: frozenset[str] = frozenset(
    {
        "Selector",
        "parse",
        "compile_selector",
        "decompose",
        "required_attributes",
        "selector_diagnostics",
        "analyze_selector",
        "compile",  # re.compile
    }
)

#: cap on propagated loop depth — beyond per-candidate-per-packet the
#: verdicts stop changing, and the cap guarantees fixpoint termination
_DEPTH_CAP = 3

#: modules allowed to construct Selectors from variable text: they ARE
#: the caching layer PERF004 routes everyone else through
_PARSE_CACHE_LAYER = ("core/selectors.py", "core/matching_engine.py")


# ----------------------------------------------------------------------
# reachability + loop-cost propagation
# ----------------------------------------------------------------------
def _entry_functions(graph: CallGraph, suffixes: Iterable[str]) -> set[str]:
    out: set[str] = set()
    for q in graph.functions:
        for s in suffixes:
            if matches_suffix(q, s):
                out.add(q)
                break
    return out


def _local_loop_depths(fn: ast.AST) -> dict[int, int]:
    """``id(expr-node) -> enclosing-loop count`` for every node in ``fn``.

    ``for``/``while`` bodies add one (the iterable expression itself is
    evaluated outside); each comprehension generator adds one for the
    element expression and deeper generators.  Nested function bodies
    are not descended into — they execute on their own schedule.
    """
    depths: dict[int, int] = {}

    def visit(node: ast.AST, d: int) -> None:
        depths[id(node)] = d
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # only descend into the *top* function we were handed
            if depths.get(id(node)) != 0 or node is not fn:
                return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.iter, d)
            visit(node.target, d)
            for stmt in node.body + node.orelse:
                visit(stmt, d + 1)
            return
        if isinstance(node, ast.While):
            visit(node.test, d + 1)
            for stmt in node.body + node.orelse:
                visit(stmt, d + 1)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for i, gen in enumerate(node.generators):
                visit(gen.iter, d + i)
                visit(gen.target, d + i + 1)
                for cond in gen.ifs:
                    visit(cond, d + i + 1)
            inner = d + len(node.generators)
            if isinstance(node, ast.DictComp):
                visit(node.key, inner)
                visit(node.value, inner)
            else:
                visit(node.elt, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, d)

    visit(fn, 0)
    return depths


class _DepthIndex:
    """Lazily built per-function ``node -> local loop depth`` maps."""

    def __init__(self, graph: CallGraph) -> None:
        self._graph = graph
        self._cache: dict[str, dict[int, int]] = {}

    def depths(self, qualname: str) -> dict[int, int]:
        got = self._cache.get(qualname)
        if got is None:
            info = self._graph.functions[qualname]
            got = self._cache[qualname] = _local_loop_depths(info.node)
        return got


def hot_contexts(
    graph: CallGraph, *, entries: Iterable[str] = HOT_ENTRY_SUFFIXES
) -> dict[str, int]:
    """Loop context of every hot-reachable function.

    ``context[q]`` is the maximum number of loops enclosing any call
    chain from a registered entry point down to ``q`` (capped at
    :data:`_DEPTH_CAP`): 0 means "runs once per packet", 1 "once per
    candidate per packet", etc.  Monotone max-propagation to fixpoint.
    """
    index = _DepthIndex(graph)
    context: dict[str, int] = {q: 0 for q in _entry_functions(graph, entries)}
    work = list(context)
    while work:
        q = work.pop()
        base = context[q]
        for site in graph.calls_from(q):
            if site.callee is None or site.callee not in graph.functions:
                continue
            cand = min(_DEPTH_CAP, base + index.depths(q).get(id(site.node), 0))
            if cand > context.get(site.callee, -1):
                context[site.callee] = cand
                work.append(site.callee)
    return context


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _diag(code: str, message: str, info: FunctionInfo, node: ast.AST) -> Diagnostic:
    return diag(code, message, info.qualname, info.path, node)


def _assigned_names(node: ast.AST) -> set[str]:
    """Every name (re)bound anywhere inside ``node``."""
    out: set[str] = set()
    for sub in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            targets = [sub.target]
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            targets = [sub.optional_vars]
        elif isinstance(sub, ast.NamedExpr):
            targets = [sub.target]
        for t in targets:
            for leaf in ast.walk(t):
                if isinstance(leaf, ast.Name):
                    out.add(leaf.id)
    return out


def _loops_in(fn: ast.AST) -> Iterator[ast.AST]:
    """Top-level walk of every loop statement in ``fn`` (nested incl.)."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield node


def _per_iteration_calls(
    fn: ast.AST, depths: dict[int, int]
) -> Iterator[tuple[ast.Call, set[str]]]:
    """Every call a loop in ``fn`` evaluates once per iteration (one in
    the loop's iterable runs once and is skipped), with the names that
    loop rebinds."""
    for loop in _loops_in(fn):
        assigned = _assigned_names(loop)
        body_depth = depths.get(id(loop), 0) + 1
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and depths.get(id(node), 0) >= body_depth:
                yield node, assigned


def _is_loop_invariant(arg: ast.expr, loop_assigned: set[str]) -> bool:
    """Whether ``arg`` provably evaluates the same every loop iteration."""
    for leaf in ast.walk(arg):
        if isinstance(leaf, ast.Name) and leaf.id in loop_assigned:
            return False
        if isinstance(leaf, ast.Call):
            return False  # any embedded call: conservatively variant
    return isinstance(arg, (ast.Constant, ast.Name, ast.Attribute))


# ----------------------------------------------------------------------
# PERF checkers
# ----------------------------------------------------------------------
class _PerfChecker:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.context = hot_contexts(graph)
        self.index = _DepthIndex(graph)
        self.out: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        for q, ctx in self.context.items():
            info = self.graph.functions[q]
            self._check_population_scans(info, ctx)
            self._check_invariant_calls(info)
            self._check_uncached_parse(info)
        return self.out

    # -- PERF001 --------------------------------------------------------
    def _check_population_scans(self, info: FunctionInfo, ctx: int) -> None:
        for node in ast.walk(info.node):
            pop: Optional[str] = None
            where: ast.AST = node
            if isinstance(node, (ast.For, ast.AsyncFor)):
                pop = rightmost_name(node.iter)
                where = node.iter
            elif isinstance(node, ast.comprehension):
                continue  # handled via the comprehension owner below
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    name = rightmost_name(gen.iter)
                    if name in POPULATION_NAMES:
                        self._perf001(info, gen.iter, name, ctx)
                continue
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("list", "sorted", "tuple", "set") and len(
                    node.args
                ) >= 1:
                    pop = rightmost_name(node.args[0])
            if pop in POPULATION_NAMES:
                assert pop is not None
                self._perf001(info, where, pop, ctx)

    def _perf001(self, info: FunctionInfo, node: ast.AST, pop: str, ctx: int) -> None:
        per = "per packet" if ctx == 0 else "inside a per-packet loop"
        self.out.append(
            _diag(
                "PERF001",
                f"population-sized scan/copy of `{pop}` {per} in"
                f" {info.name}(): O(population) work on the hot path",
                info,
                node,
            )
        )

    # -- PERF004 (a): loop-invariant pure calls -------------------------
    def _check_invariant_calls(self, info: FunctionInfo) -> None:
        depths = self.index.depths(info.qualname)
        for node, assigned in _per_iteration_calls(info.node, depths):
            name = rightmost_name(node.func)
            if name not in PURE_CALLABLES:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            if not args:
                continue
            if all(_is_loop_invariant(a, assigned) for a in args):
                self.out.append(
                    _diag(
                        "PERF004",
                        f"loop-invariant pure call {name}(...) inside a"
                        f" hot loop in {info.name}(): identical work"
                        " every iteration; hoist it out of the loop",
                        info,
                        node,
                    )
                )

    # -- PERF004 (b): uncached selector parse ---------------------------
    def _check_uncached_parse(self, info: FunctionInfo) -> None:
        norm = info.path.replace("\\", "/")
        if any(norm.endswith(layer) for layer in _PARSE_CACHE_LAYER):
            return
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Call) and rightmost_name(node.func) == "Selector"):
                continue
            if not node.args or isinstance(node.args[0], ast.Constant):
                continue
            self.out.append(
                _diag(
                    "PERF004",
                    f"Selector(...) re-parses selector text on every call to"
                    f" {info.name}(): route through the parse cache"
                    " (repro.core.selectors.parse / compile_selector)",
                    info,
                    node,
                )
            )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def perf_findings(graph: CallGraph) -> list[Diagnostic]:
    """Raw PERF findings over an already-built call graph."""
    return _PerfChecker(graph).run()


#: ``perf_diagnostics(graph, *, ignore=())`` / ``analyze_hotpath(paths, *,
#: ignore=())``: the findings above with suppressions applied
perf_diagnostics, analyze_hotpath = graph_entry_points(perf_findings)
