"""Hot-path cost (PERF) and replay-determinism (DET) verification.

The ROADMAP's scale program (open item 3) makes two properties of the
dispatch fabric load-bearing: *per-packet cost* must stay sublinear in
the population (the whole point of the indexed/sharded brokers), and a
seeded run must *replay byte-identically* (the whole point of the fault
injector).  Nothing structural stops a new PR from silently violating
either — an ``O(N)`` scan hidden three calls below ``publish()``, or a
``set`` iteration feeding delivery order.  This pass checks both
statically, over the same project call graph the dataflow and typestate
passes walk.

**Interprocedural loop-cost propagation.**  A registry of per-packet /
per-message entry points (:data:`HOT_ENTRY_SUFFIXES` — ``Network.send``,
``SemanticBus.publish``/``publish_many``, the sharded batch broker,
``RtpReassembler.ingest``, the SNMP poll loop, and the attach-path
population churners) seeds a forward closure over resolved call edges.
Each reachable function gets a *loop context*: the maximum number of
enclosing loops accumulated along any call chain from an entry (a call
made inside a ``for`` adds one).  A statement's *effective depth* is its
function's context plus its local loop nesting — depth 0 runs once per
packet, depth 1 once per candidate per packet, and so on.  The PERF
rules key off that depth:

* **PERF001** — population-sized scan or copy (iteration over, or
  ``list()``/``sorted()``/``tuple()``/``set()`` of, a name in
  :data:`POPULATION_NAMES`) anywhere on a hot path.
* **PERF002** — container construction (copy-call, display, or
  comprehension) at effective depth >= 2: per-candidate × per-packet
  allocation churn.
* **PERF003** — repeated immutable-``bytes`` concatenation
  (``buf += chunk`` in a loop on a hot path): quadratic; use
  ``bytearray`` or ``join``.
* **PERF004** — loop-invariant pure calls in hot loops (every argument
  constant or unassigned in the loop), and uncached
  ``Selector(text)`` construction on a hot path outside the caching
  layer — re-parsing identical selector text per call.
* **PERF005** — eager string formatting handed to ``print``/logging
  inside a hot loop (the f-string renders even when the sink discards
  it).

**Replay determinism (DET).**  A second registry
(:data:`SIM_ROOT_SUFFIXES` plus every ``repro.experiments`` ``run_*`` /
``main``) seeds the *simulation-reachable* set — code whose behaviour
PR 5's byte-identical seeded replay depends on:

* **DET001** — unseeded or process-global RNG (``random.random()``,
  ``np.random.default_rng()`` with no seed, legacy ``np.random.*``
  draws) reachable from simulation paths.
* **DET002** — wall-clock reads (``time.time``/``perf_counter``/
  ``datetime.now``) reachable from simulation paths.  Experiment
  *harness* timing — measuring real throughput around a deterministic
  workload — is legitimate and exempted via
  :data:`DET_WALLCLOCK_EXEMPT_PATHS` (path fragments).
* **DET003** — iteration over a ``set``/``frozenset`` feeding an
  ordering-sensitive sink (delivery/append/heap/serialization) without
  ``sorted()``.  Python ``dict`` views are insertion-ordered and
  therefore deterministic; string ``set`` order is hash-randomized
  across processes, so an unsorted set iteration diverges between a
  run and its replay.
* **DET004** — ``id()`` or object-``hash()`` inside an ordering key
  (``sorted``/``sort``/``min``/``max`` ``key=`` or a ``heappush``
  entry): CPython ids are allocation addresses and differ every run.

Everything reports through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model, so
``# repro: ignore[PERF001]`` suppressions, ``--ignore``, baseline
fingerprints, and SARIF rendering all apply unchanged.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from .callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    matches_suffix,
    name_binding,
    rightmost_name,
)
from .diagnostics import Diagnostic
from .passes import diag, graph_entry_points, is_set_expr, reachable

__all__ = [
    "HOT_ENTRY_SUFFIXES",
    "SIM_ROOT_SUFFIXES",
    "POPULATION_NAMES",
    "PURE_CALLABLES",
    "DET_WALLCLOCK_EXEMPT_PATHS",
    "hot_contexts",
    "sim_reachable",
    "perf_findings",
    "det_findings",
    "perf_diagnostics",
    "det_diagnostics",
    "hotpath_diagnostics",
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

#: Simulation roots for the DET rules: the event loop, the framework
#: drivers, and the datapath entries.  Module-level functions named
#: ``run_*`` or ``main`` inside ``repro.experiments`` count as roots
#: too (see :func:`sim_reachable`).
SIM_ROOT_SUFFIXES: tuple[str, ...] = HOT_ENTRY_SUFFIXES + (
    "Scheduler.step",
    "Scheduler.run",
    "Scheduler.run_until",
    "Scheduler.run_for",
    "CollaborationFramework.run",
    "CollaborationFramework.run_for",
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

#: Path fragments whose wall-clock reads are *harness* timing (real
#: throughput measured around a deterministic workload), not simulation
#: state — exempt from DET002.  Keep each entry justified here.
DET_WALLCLOCK_EXEMPT_PATHS: tuple[str, ...] = (
    # measures real elapsed time of the deterministic broker workload;
    # the workload itself is seeded and virtual-clocked
    "experiments/broker_scale.py",
)

#: module-level ``random.*`` draws on the process-global (unseeded) RNG
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "getrandbits",
    }
)

#: legacy ``np.random.*`` draws on numpy's process-global RNG
_NP_GLOBAL_FNS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "exponential",
        "poisson",
    }
)

_WALLCLOCK_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

_WALLCLOCK_DATE_FNS = frozenset({"now", "utcnow", "today"})

#: method calls inside a loop body that make iteration order observable
_ORDER_SENSITIVE_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "heappush",
        "put",
        "put_nowait",
        "publish",
        "send",
        "sendto",
        "write",
        "pack",
        "call_at",
        "call_after",
        "callback",
        "deliver",
        "join",
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


def sim_reachable(graph: CallGraph) -> set[str]:
    """Functions reachable from the simulation roots (DET scope)."""
    roots = _entry_functions(graph, SIM_ROOT_SUFFIXES)
    for q, info in graph.functions.items():
        if info.module.startswith("repro.experiments") and (
            info.name == "main" or info.name.startswith("run")
        ):
            roots.add(q)
    return reachable(graph, roots)


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _dotted(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return f"{_dotted(expr.value)}.{expr.attr}"
    return "<expr>"


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
            depths = self.index.depths(q)
            self._check_population_scans(info, ctx)
            self._check_allocation_churn(info, depths)
            self._check_bytes_concat(info)
            self._check_invariant_calls(info)
            self._check_uncached_parse(info)
            self._check_eager_formatting(info, ctx, depths)
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

    # -- PERF002 --------------------------------------------------------
    def _check_allocation_churn(self, info: FunctionInfo, depths: dict[int, int]) -> None:
        """Same-source container copies re-made every hot-loop iteration.

        A copy whose source varies per iteration (indexing per-item data)
        is the loop's actual work and is not flagged; copying the *same*
        mapping/sequence once per candidate per packet is pure churn.
        """
        for node, assigned in _per_iteration_calls(info.node, depths):
            if not (
                isinstance(node.func, ast.Name)
                and node.func.id in ("dict", "list", "set", "tuple")
                and node.args
            ):
                continue
            if not all(_is_loop_invariant(a, assigned) for a in node.args):
                continue
            if rightmost_name(node.args[0]) in POPULATION_NAMES:
                continue  # PERF001 already covers population copies
            self.out.append(
                _diag(
                    "PERF002",
                    f"{node.func.id}(...) copies the same source on every"
                    f" iteration of a hot loop in {info.name}():"
                    " per-candidate-per-packet allocation churn; hoist"
                    " the copy out of the loop",
                    info,
                    node,
                )
            )

    # -- PERF003 --------------------------------------------------------
    def _check_bytes_concat(self, info: FunctionInfo) -> None:
        bytes_vars = self._bytes_locals(info.node)
        for loop in _loops_in(info.node):
            for node in ast.walk(loop):
                target: Optional[str] = None
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and isinstance(node.target, ast.Name)
                ):
                    target = node.target.id
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Add)
                    and isinstance(node.value.left, ast.Name)
                    and node.value.left.id == node.targets[0].id
                ):
                    target = node.targets[0].id
                if target is not None and target in bytes_vars:
                    self.out.append(
                        _diag(
                            "PERF003",
                            f"`{target} += ...` concatenates immutable bytes"
                            f" inside a loop in {info.name}(): quadratic;"
                            " accumulate in a bytearray or join once",
                            info,
                            node,
                        )
                    )

    @staticmethod
    def _bytes_locals(fn: ast.AST) -> set[str]:
        """Names bound to a bytes-ish initializer anywhere in ``fn``."""
        out: set[str] = set()
        for node in ast.walk(fn):
            bound = name_binding(node)
            if bound is None:
                continue
            target, v = bound
            if isinstance(v, ast.Constant) and isinstance(v.value, bytes):
                out.add(target)
            elif isinstance(v, ast.Call) and rightmost_name(v.func) in ("bytes", "encode"):
                out.add(target)
        return out

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

    # -- PERF005 --------------------------------------------------------
    def _check_eager_formatting(
        self, info: FunctionInfo, ctx: int, depths: dict[int, int]
    ) -> None:
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            total = ctx + depths.get(id(node), 0)
            if total < 1:
                continue
            sink: Optional[str] = None
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                sink = "print"
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "debug",
                "info",
                "warning",
                "error",
                "exception",
                "log",
            ):
                base = rightmost_name(node.func.value)
                if base in ("logging", "logger", "log", "_log", "_logger"):
                    sink = f"{base}.{node.func.attr}"
            if sink is None:
                continue
            if sink == "print" or any(self._is_eager_format(a) for a in node.args):
                self.out.append(
                    _diag(
                        "PERF005",
                        f"eager {sink}(...) in a hot loop in {info.name}():"
                        " formats/writes once per packet even when the sink"
                        " discards it; guard it or log outside the loop",
                        info,
                        node,
                    )
                )

    @staticmethod
    def _is_eager_format(arg: ast.expr) -> bool:
        if isinstance(arg, ast.JoinedStr):
            return True
        if isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Mod, ast.Add)):
            return any(
                isinstance(side, ast.Constant) and isinstance(side.value, str)
                for side in (arg.left, arg.right)
            )
        if isinstance(arg, ast.Call) and rightmost_name(arg.func) == "format":
            return True
        return False


# ----------------------------------------------------------------------
# DET checkers
# ----------------------------------------------------------------------
class _DetChecker:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.reachable = sim_reachable(graph)
        self.out: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        for q in self.reachable:
            info = self.graph.functions[q]
            for site in self.graph.calls_from(q):
                self._check_rng(info, site)
                self._check_wallclock(info, site)
            self._check_set_iteration(info)
            self._check_identity_keys(info)
        return self.out

    # -- DET001 ---------------------------------------------------------
    def _check_rng(self, info: FunctionInfo, site: CallSite) -> None:
        repr_ = site.func_repr
        msg: Optional[str] = None
        if repr_.startswith("random.") and site.method in _GLOBAL_RANDOM_FNS:
            msg = f"{repr_}() draws from the process-global RNG"
        elif site.method == "Random" and repr_.split(".")[0] in ("random",) and not (
            site.node.args or site.node.keywords
        ):
            msg = "random.Random() constructed without a seed"
        elif site.method == "default_rng" and not (site.node.args or site.node.keywords):
            msg = f"{repr_}() creates an unseeded numpy Generator"
        elif (
            ".random." in f".{repr_}"
            and repr_.split(".")[0] in ("np", "numpy")
            and site.method in _NP_GLOBAL_FNS
        ):
            msg = f"{repr_}() draws from numpy's process-global RNG"
        if msg is not None:
            self.out.append(
                _diag(
                    "DET001",
                    f"{msg} on a simulation path ({info.name}()): seeded"
                    " replay will not be byte-identical; thread a seeded"
                    " Generator/Random through instead",
                    info,
                    site.node,
                )
            )

    # -- DET002 ---------------------------------------------------------
    def _check_wallclock(self, info: FunctionInfo, site: CallSite) -> None:
        norm = site.path.replace("\\", "/")
        if any(fragment in norm for fragment in DET_WALLCLOCK_EXEMPT_PATHS):
            return
        repr_ = site.func_repr
        hit = (
            repr_.startswith("time.") and site.method in _WALLCLOCK_TIME_FNS
        ) or (
            site.method in _WALLCLOCK_DATE_FNS
            and ("datetime" in repr_ or repr_.startswith("date."))
        )
        if hit:
            self.out.append(
                _diag(
                    "DET002",
                    f"wall-clock read {repr_}() on a simulation path"
                    f" ({info.name}()): replay diverges with host timing;"
                    " use the virtual clock, or register the harness in"
                    " DET_WALLCLOCK_EXEMPT_PATHS with a justification",
                    info,
                    site.node,
                )
            )

    # -- DET003 ---------------------------------------------------------
    def _check_set_iteration(self, info: FunctionInfo) -> None:
        set_locals = self._set_locals(info.node)
        for node in ast.walk(info.node):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not is_set_expr(node.iter, set_locals):
                continue
            sink = self._order_sink_in(node)
            if sink is None:
                continue
            self.out.append(
                _diag(
                    "DET003",
                    f"iteration over a set feeds ordering-sensitive"
                    f" `{sink}` in {info.name}(): set order is"
                    " hash-randomized across runs; iterate sorted(...)",
                    info,
                    node.iter,
                )
            )

    @staticmethod
    def _set_locals(fn: ast.AST) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(fn):
            bound = name_binding(node)
            if bound is None:
                continue
            target, v = bound
            is_set = isinstance(v, (ast.Set, ast.SetComp)) or (
                isinstance(v, ast.Call)
                and rightmost_name(v.func)
                in ("set", "frozenset", "intersection", "union", "difference")
            )
            if is_set:
                out.add(target)
            else:
                out.discard(target)  # rebound to something else
        return out

    @staticmethod
    def _order_sink_in(loop: ast.AST) -> Optional[str]:
        assert isinstance(loop, (ast.For, ast.AsyncFor))
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return "yield"
                if isinstance(node, ast.Call):
                    name = rightmost_name(node.func)
                    if name in _ORDER_SENSITIVE_METHODS:
                        return name
        return None

    # -- DET004 ---------------------------------------------------------
    def _check_identity_keys(self, info: FunctionInfo) -> None:
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = rightmost_name(node.func)
            suspect: Optional[ast.expr] = None
            if name in ("sorted", "min", "max", "sort"):
                for kw in node.keywords:
                    if kw.arg == "key":
                        suspect = kw.value
            elif name == "heappush" and len(node.args) >= 2:
                suspect = node.args[1]
            if suspect is None:
                continue
            ident = self._identity_call_in(suspect)
            if ident is None:
                continue
            self.out.append(
                _diag(
                    "DET004",
                    f"{ident}() used in an ordering key passed to {name} in"
                    f" {info.name}(): object identity/hash varies across"
                    " runs; key on a stable field (seq, id string) instead",
                    info,
                    node,
                )
            )

    @staticmethod
    def _identity_call_in(expr: ast.expr) -> Optional[str]:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("id", "hash")
            ):
                return node.func.id
        return None


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def perf_findings(graph: CallGraph) -> list[Diagnostic]:
    """Raw PERF findings over an already-built call graph."""
    return _PerfChecker(graph).run()


def det_findings(graph: CallGraph) -> list[Diagnostic]:
    """Raw DET findings over an already-built call graph."""
    return _DetChecker(graph).run()


#: ``*_diagnostics(graph, *, ignore=())`` / ``analyze_hotpath(paths, *,
#: ignore=())``: the findings above (PERF then DET) with suppressions applied
perf_diagnostics, _ = graph_entry_points(perf_findings)
det_diagnostics, _ = graph_entry_points(det_findings)
hotpath_diagnostics, analyze_hotpath = graph_entry_points(perf_findings, det_findings)
