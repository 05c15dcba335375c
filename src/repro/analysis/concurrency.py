"""Static lock-order (DLK) and shared-state race (RACE) verification.

The messaging fabric holds two independent attach locks
(``SemanticBus``, ``ShardedSemanticBus``) and fans
batch matching out over a ``ThreadPoolExecutor``; the ROADMAP's scale
program multiplies that surface.  This pass proves lock discipline and
shared-field access the way TSan/lockdep do at run time, but
statically, over the same project call graph the dataflow and
hot-path passes walk.

**Lock-acquisition graph.**  Locks are identified by *attribute path +
owner class* (``SemanticBus._attach_lock``) or module-level name,
collected from ``threading.Lock()``/``RLock()``/``make_lock()``
construction sites.  A worklist propagates *held-lock contexts*
interprocedurally: from every entry point (functions without in-graph
callers, thread roots, delivery callbacks) through resolved call edges,
through ``with lock:`` blocks and ``acquire()``/``release()`` pairs, and
through ``pool.submit(f, ...)`` — the sharded broker's fan-out blocks on
its futures while holding the attach lock, so a submitted target runs
under the submitter's locks for ordering purposes.  Acquiring ``M``
while holding ``H`` adds the edge ``H -> M``.

* **DLK001** — cycle in the lock-order graph (potential deadlock); a
  non-reentrant lock re-acquired while already held is the 1-cycle.
* **DLK002** — acquire-while-held across a backend boundary (the held
  and acquired locks live in different owner classes/modules): a
  layering hazard that composes into cycles the moment the inner layer
  learns to call out.
* **DLK003** — a field the owner class protects with a lock (written
  under it somewhere) is also written on some path *without* that lock.

**Shared-state races.**  Thread-root reachability labels every function
with the roots that can run it: ``ThreadPoolExecutor.submit`` targets
and ``Thread(target=...)`` (true threads), delivery-callback
registrations, and the main/API surface.

* **RACE001** — a field written from two or more distinct roots, at
  least one a *free-running* thread, with at least one write not under
  any lock.  A submit target only ever dispatched while the submitter
  holds a lock (and blocks on the futures — the sharded broker's
  "scoped fan-out") is not free-running: the lock serializes it against
  every same-lock path, so it labels code for RACE002/003 scoping but
  cannot by itself satisfy RACE001's thread requirement.
* **RACE002** — unsynchronized lazy initialisation
  (``if self.x is None: self.x = make()``) reachable with no lock held,
  in a class that owns a lock or runs on a thread root (the
  ``_ensure_pool`` pattern — safe only while every caller holds the
  attach lock, which this pass verifies rather than assumes).
* **RACE003** — non-atomic check-then-act on a shared *container*
  (``if k in self.d: self.d.pop(k)``) reachable with no lock held, same
  class scope as RACE002.

Constructor writes (``__init__``/``__new__``/``_init*`` helpers and
functions reachable *only* from them) are exempt everywhere: they
happen-before any thread can see the object.

The runtime half lives in :mod:`repro.analysis.sanitizer`;
:func:`check_sanitizer_report` merges a sanitizer JSON report's observed
edges into the static graph and re-runs cycle detection, so a runtime
order the static pass could not resolve still gates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .callgraph import (
    CallGraph,
    FunctionInfo,
    module_name_for_path,
    name_binding,
    rightmost_name,
    self_attr,
)
from .diagnostics import Diagnostic, filter_diagnostics
from .passes import (
    MUTATING_METHODS,
    delivery_registrations,
    diag,
    graph_entry_points,
    is_container_value,
    reachable,
    resolve_callback_ref,
)

__all__ = [
    "LOCK_FACTORIES",
    "LockInfo",
    "collect_locks",
    "lock_order_edges",
    "find_cycles",
    "concurrency_findings",
    "concurrency_diagnostics",
    "analyze_concurrency",
    "check_sanitizer_report",
]

#: callables whose result is a lock (rightmost name of the constructor)
LOCK_FACTORIES: frozenset[str] = frozenset({"Lock", "RLock", "make_lock", "TrackedLock"})

#: factories producing re-entrant locks (self-acquire is not a 1-cycle)
_REENTRANT_FACTORIES: frozenset[str] = frozenset({"RLock"})

#: held-context fan-out cap per function (worklist safety valve; real
#: code holds one or two locks, corpus files a handful)
_MAX_CONTEXTS = 16


@dataclass(frozen=True)
class LockInfo:
    """One lock the analyzed tree constructs."""

    name: str  #: ``Owner.attr`` or ``module.NAME``
    owner: Optional[str]  #: owner class short name (None: module-level)
    attr: str
    reentrant: bool
    path: str
    line: int


@dataclass
class _Acquire:
    lock: str
    fn: str
    path: str
    line: int
    node: ast.AST


@dataclass
class _Edge:
    """First (lexicographically) witness of one lock-order edge."""

    held: str
    acquired: str
    fn: str
    path: str
    line: int
    node: ast.AST


@dataclass
class _Write:
    cls: str
    attr: str
    fn: str
    path: str
    line: int
    node: ast.AST
    is_container_value: bool = False
    ctxs: set[frozenset[str]] = field(default_factory=set)


def _lock_ctor(value: ast.expr) -> Optional[tuple[str, bool]]:
    """(factory name, reentrant) when ``value`` constructs a lock."""
    if not isinstance(value, ast.Call):
        return None
    name = rightmost_name(value.func)
    if name not in LOCK_FACTORIES:
        return None
    reentrant = name in _REENTRANT_FACTORIES
    for kw in value.keywords:
        if kw.arg == "reentrant" and isinstance(kw.value, ast.Constant):
            reentrant = bool(kw.value.value)
    return name, reentrant


def collect_locks(graph: CallGraph) -> dict[str, LockInfo]:
    """Every lock the tree constructs, keyed by its identity name.

    ``self.attr = threading.Lock()`` inside a class, class-body
    ``attr = Lock()``, and module-level ``NAME = Lock()`` assignments
    all count; :func:`~repro.analysis.sanitizer.make_lock` and
    ``TrackedLock`` are recognised as lock factories so instrumented
    code analyzes identically to plain code.
    """
    locks: dict[str, LockInfo] = {}

    def record(name: str, owner: Optional[str], attr: str, reentrant: bool, path: str, node: ast.AST) -> None:
        if name not in locks:
            locks[name] = LockInfo(
                name, owner, attr, reentrant, path, getattr(node, "lineno", 0)
            )

    # instance attributes: self.attr = Lock() anywhere in a method
    for fn in graph.functions.values():
        if fn.cls is None:
            continue
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = self_attr(node.targets[0])
                ctor = _lock_ctor(node.value)
                if attr is not None and ctor is not None:
                    record(f"{fn.cls}.{attr}", fn.cls, attr, ctor[1], fn.path, node)
    # module-level and class-body locks need the raw module ASTs
    for path in sorted(graph.trees):
        module = module_name_for_path(path)
        for node in graph.trees[path].body:
            bound = name_binding(node)
            ctor = _lock_ctor(bound[1]) if bound is not None else None
            if bound is not None and ctor is not None:
                record(f"{module}.{bound[0]}", None, bound[0], ctor[1], path, node)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    bound = name_binding(stmt)
                    ctor = _lock_ctor(bound[1]) if bound is not None else None
                    if bound is not None and ctor is not None:
                        record(f"{node.name}.{bound[0]}", node.name, bound[0], ctor[1], path, stmt)
    return locks


# ----------------------------------------------------------------------
# interprocedural held-context propagation
# ----------------------------------------------------------------------
class _LockFlow:
    """Worklist pass computing held-lock contexts, edges, and writes."""

    def __init__(self, graph: CallGraph, locks: dict[str, LockInfo]) -> None:
        self.graph = graph
        self.locks = locks
        self.edges: dict[tuple[str, str], _Edge] = {}
        self.acquires: dict[str, list[_Acquire]] = {}
        #: function -> set of entry held-contexts analyzed
        self.contexts: dict[str, set[frozenset[str]]] = {}
        #: (fn, line, col, attr) -> write record
        self.writes: dict[tuple[str, int, int, str], _Write] = {}
        #: (fn, line, col) of an If statement -> observed held-contexts
        self.if_ctxs: dict[tuple[str, int, int], set[frozenset[str]]] = {}
        #: true thread roots discovered (submit / Thread targets)
        self.thread_roots: set[str] = set()
        #: thread roots only ever seen with the submitter holding a lock
        #: ("scoped fan-out": the submitter blocks on the futures with the
        #: lock held, so the workers never run concurrently with any path
        #: that takes the same lock — the sharded broker's design)
        self.free_thread_roots: set[str] = set()
        self._ann_types: dict[str, dict[str, str]] = {}
        self._work: list[tuple[str, frozenset[str]]] = []

    # -- public ---------------------------------------------------------
    def run(self) -> None:
        for q in sorted(self.graph.functions):
            if not self.graph.callers_of(q):
                self._push(q, frozenset())
        while self._work:
            q, ctx = self._work.pop()
            fn = self.graph.functions[q]
            self._walk_block(fn, fn.node.body, ctx)

    # -- worklist -------------------------------------------------------
    def _push(self, q: str, ctx: frozenset[str]) -> None:
        if q not in self.graph.functions:
            return
        seen = self.contexts.setdefault(q, set())
        if ctx in seen or len(seen) >= _MAX_CONTEXTS:
            return
        seen.add(ctx)
        self._work.append((q, ctx))

    # -- per-function resolution caches ---------------------------------
    def _annotations(self, fn: FunctionInfo) -> dict[str, str]:
        cached = self._ann_types.get(fn.qualname)
        if cached is not None:
            return cached
        out: dict[str, str] = {}
        for arg in list(fn.node.args.args) + list(fn.node.args.kwonlyargs):
            name = rightmost_name(arg.annotation) if arg.annotation is not None else None
            if name is not None and name in self.graph.classes:
                out[arg.arg] = name
        self._ann_types[fn.qualname] = out
        return out

    # -- lock identity of an expression ---------------------------------
    def _lock_of(self, expr: ast.expr, fn: FunctionInfo) -> Optional[str]:
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr == "acquire":
                return self._lock_of(expr.func.value, fn)
            return None
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if isinstance(base, ast.Name):
                if base.id == "self" and fn.cls is not None:
                    name = f"{fn.cls}.{expr.attr}"
                    if name in self.locks:
                        return name
                typ = self._annotations(fn).get(base.id)
                if typ is not None:
                    name = f"{typ}.{expr.attr}"
                    if name in self.locks:
                        return name
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and fn.cls is not None
            ):
                typ = self.graph.attr_types.get((fn.cls, base.attr))
                if typ is not None:
                    name = f"{typ}.{expr.attr}"
                    if name in self.locks:
                        return name
        elif isinstance(expr, ast.Name):
            name = f"{fn.module}.{expr.id}"
            if name in self.locks:
                return name
        return None

    # -- recording ------------------------------------------------------
    def _record_acquire(
        self, fn: FunctionInfo, lock: str, held: frozenset[str], node: ast.AST
    ) -> None:
        line = getattr(node, "lineno", 0)
        self.acquires.setdefault(lock, []).append(
            _Acquire(lock, fn.qualname, fn.path, line, node)
        )
        for h in sorted(held):
            if h == lock and self.locks[lock].reentrant:
                continue
            edge = _Edge(h, lock, fn.qualname, fn.path, line, node)
            prior = self.edges.get((h, lock))
            if prior is None or (edge.path, edge.line, edge.fn) < (
                prior.path,
                prior.line,
                prior.fn,
            ):
                self.edges[(h, lock)] = edge

    def _record_write(
        self,
        fn: FunctionInfo,
        attr: str,
        node: ast.AST,
        held: frozenset[str],
        *,
        value: Optional[ast.expr] = None,
    ) -> None:
        if fn.cls is None:
            return
        if f"{fn.cls}.{attr}" in self.locks:
            return  # the lock slot itself is not protected data
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        key = (fn.qualname, line, col, attr)
        rec = self.writes.get(key)
        if rec is None:
            rec = _Write(fn.cls, attr, fn.qualname, fn.path, line, node)
            self.writes[key] = rec
        if value is not None and is_container_value(value):
            rec.is_container_value = True
        rec.ctxs.add(held)

    # -- the walker -----------------------------------------------------
    def _walk_block(
        self, fn: FunctionInfo, stmts: list[ast.stmt], held: frozenset[str]
    ) -> None:
        cur = held
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = cur
                for item in stmt.items:
                    self._visit_expr(fn, item.context_expr, inner)
                    lock = self._lock_of(item.context_expr, fn)
                    if lock is not None:
                        self._record_acquire(fn, lock, inner, item.context_expr)
                        inner = inner | {lock}
                self._walk_block(fn, stmt.body, inner)
            elif isinstance(stmt, ast.If):
                self._visit_expr(fn, stmt.test, cur)
                key = (fn.qualname, stmt.lineno, stmt.col_offset)
                self.if_ctxs.setdefault(key, set()).add(cur)
                self._walk_block(fn, stmt.body, cur)
                self._walk_block(fn, stmt.orelse, cur)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._visit_expr(fn, stmt.test if isinstance(stmt, ast.While) else stmt.iter, cur)
                self._walk_block(fn, stmt.body, cur)
                self._walk_block(fn, stmt.orelse, cur)
            elif isinstance(stmt, ast.Try):
                self._walk_block(fn, stmt.body, cur)
                for handler in stmt.handlers:
                    self._walk_block(fn, handler.body, cur)
                self._walk_block(fn, stmt.orelse, cur)
                self._walk_block(fn, stmt.finalbody, cur)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # deferred bodies run in their own context
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                lock = self._lock_of(stmt.value, fn)
                func = stmt.value.func
                if lock is not None and isinstance(func, ast.Attribute):
                    if func.attr == "acquire":
                        self._record_acquire(fn, lock, cur, stmt.value)
                        cur = cur | {lock}
                        continue
                release_of = (
                    self._lock_of(func.value, fn)
                    if isinstance(func, ast.Attribute) and func.attr == "release"
                    else None
                )
                if release_of is not None:
                    cur = cur - {release_of}
                    continue
                self._visit_expr(fn, stmt.value, cur)
            else:
                self._record_stmt_writes(fn, stmt, cur)
                for expr in ast.iter_child_nodes(stmt):
                    if isinstance(expr, ast.expr):
                        self._visit_expr(fn, expr, cur)

    def _record_stmt_writes(
        self, fn: FunctionInfo, stmt: ast.stmt, held: frozenset[str]
    ) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._write_target(fn, target, stmt, held, value=stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._write_target(fn, stmt.target, stmt, held)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._write_target(fn, stmt.target, stmt, held, value=stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._write_target(fn, target, stmt, held)

    def _write_target(
        self,
        fn: FunctionInfo,
        target: ast.expr,
        stmt: ast.stmt,
        held: frozenset[str],
        *,
        value: Optional[ast.expr] = None,
    ) -> None:
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._write_target(fn, elt, stmt, held)
            return
        if isinstance(target, ast.Subscript):
            target = target.value
            value = None  # d[k] = v mutates the container, not rebinds it
        attr = self_attr(target)
        if attr is not None:
            self._record_write(fn, attr, stmt, held, value=value)

    def _visit_expr(self, fn: FunctionInfo, expr: ast.expr, held: frozenset[str]) -> None:
        sites = self.graph.sites_by_node(fn.qualname)
        for node in _walk_skipping_lambdas(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # pool.submit(f, ...): ordering-wise a call under the
            # submitter's locks (the broker blocks on its futures with
            # the attach lock held) AND a true thread root
            if isinstance(func, ast.Attribute) and func.attr == "submit" and node.args:
                target = resolve_callback_ref(node.args[0], fn, self.graph)
                if target is not None:
                    self.thread_roots.add(target)
                    if not held:
                        self.free_thread_roots.add(target)
                    self._push(target, held)
                continue
            # Thread(target=f): f starts on a fresh thread, lock-free
            if rightmost_name(func) == "Thread":
                for kw in node.keywords:
                    if kw.arg == "target":
                        target = resolve_callback_ref(kw.value, fn, self.graph)
                        if target is not None:
                            self.thread_roots.add(target)
                            self.free_thread_roots.add(target)
                            self._push(target, frozenset())
                continue
            # expression-position acquire (e.g. `ok = l.acquire(False)`)
            lock = self._lock_of(node, fn)
            if lock is not None and isinstance(func, ast.Attribute) and func.attr == "acquire":
                self._record_acquire(fn, lock, held, node)
                continue
            # in-place mutation of self.attr via a container method
            if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
                attr = self_attr(func.value)
                if attr is not None:
                    self._record_write(fn, attr, node, held)
            site = sites.get(id(node))
            if site is not None and site.callee is not None:
                self._push(site.callee, held)


def _walk_skipping_lambdas(expr: ast.expr) -> Iterator[ast.AST]:
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.Lambda):
            continue  # deferred body
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


# ----------------------------------------------------------------------
# cycle detection (shared with the sanitizer cross-check)
# ----------------------------------------------------------------------
def find_cycles(edges: Iterable[tuple[str, str]]) -> list[tuple[str, ...]]:
    """Canonical cycles of the directed graph ``edges``.

    Returns one tuple per strongly connected component with more than
    one node (sorted members) plus one 1-tuple per self-loop, the whole
    list sorted — a verdict that is, by construction, invariant under
    the insertion order of ``edges`` (the hypothesis suite pins this).
    """
    adj: dict[str, set[str]] = {}
    nodes: set[str] = set()
    self_loops: set[str] = set()
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
        if a == b:
            self_loops.add(a)
        else:
            adj.setdefault(a, set()).add(b)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    def strongconnect(root: str) -> None:
        work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                scc: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1:
                    sccs.append(scc)

    for node in sorted(nodes):
        if node not in index:
            strongconnect(node)
    out = [tuple(sorted(scc)) for scc in sccs]
    out.extend((n,) for n in sorted(self_loops))
    return sorted(out)


def lock_order_edges(graph: CallGraph) -> list[tuple[str, str]]:
    """The static lock-acquisition-order edges of ``graph``, sorted.

    This is the relation the runtime sanitizer asserts against
    (:meth:`~repro.analysis.sanitizer.LockOrderSanitizer.check_against`).
    """
    locks = collect_locks(graph)
    flow = _LockFlow(graph, locks)
    flow.run()
    return sorted(flow.edges)


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
class _ConcurrencyChecker:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.locks = collect_locks(graph)
        self.flow = _LockFlow(graph, self.locks)
        self.flow.run()
        self.out: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        self._exempt = self._constructor_closure()
        self._labels = self._root_labels()
        self._check_dlk001()
        self._check_dlk002()
        self._check_dlk003()
        self._check_race001()
        self._check_race002_race003()
        return self.out

    # -- constructor exemption fixpoint ---------------------------------
    def _constructor_closure(self) -> set[str]:
        """Functions whose every run happens-before concurrency starts."""
        exempt: set[str] = set()
        for q, fn in self.graph.functions.items():
            node = fn.node
            decorated_cls = any(
                rightmost_name(d) == "classmethod" for d in node.decorator_list
            )
            if fn.name in ("__init__", "__new__") or fn.name.startswith("_init") or (
                fn.cls is not None and decorated_cls and fn.name.startswith(("over_", "from_", "make_", "create"))
            ):
                exempt.add(q)
        changed = True
        while changed:
            changed = False
            for q in sorted(self.graph.functions):
                if q in exempt:
                    continue
                callers = self.graph.callers_of(q)
                if callers and callers <= exempt and q not in self.flow.thread_roots:
                    exempt.add(q)
                    changed = True
        return exempt

    # -- thread-root labelling ------------------------------------------
    def _root_labels(self) -> dict[str, set[tuple[str, str]]]:
        #: label -> the functions it starts from
        seeds: dict[tuple[str, str], list[str]] = {}
        for root in sorted(self.flow.thread_roots):
            kind = "thread" if root in self.flow.free_thread_roots else "scoped"
            seeds[(kind, root)] = [root]
        for reg in delivery_registrations(self.graph):
            seeds[("callback", reg.target)] = [reg.target]
        rooted = {start for starts in seeds.values() for start in starts}
        seeds[("main", "main")] = [
            q
            for q in sorted(self.graph.functions)
            if not self.graph.callers_of(q) and q not in rooted
        ]
        labels: dict[str, set[tuple[str, str]]] = {}
        for label, starts in seeds.items():
            for q in reachable(self.graph, starts):
                labels.setdefault(q, set()).add(label)
        return labels

    # -- DLK001: lock-order cycles --------------------------------------
    def _check_dlk001(self) -> None:
        for cycle in find_cycles(self.flow.edges):
            witness = self._cycle_witness(cycle)
            if witness is None:
                continue
            chain = " -> ".join(cycle + (cycle[0],)) if len(cycle) > 1 else cycle[0]
            what = (
                f"non-reentrant lock {cycle[0]} re-acquired while already held"
                if len(cycle) == 1
                else f"lock-order cycle {chain}"
            )
            self.out.append(
                diag(
                    "DLK001",
                    f"{what}: threads taking these locks in different orders"
                    " can deadlock; acquire them in one global order",
                    witness.fn,
                    witness.path,
                    witness.node,
                )
            )

    def _cycle_witness(self, cycle: tuple[str, ...]) -> Optional[_Edge]:
        members = set(cycle)
        best: Optional[_Edge] = None
        for (a, b), edge in self.flow.edges.items():
            in_cycle = (a in members and b in members) if len(cycle) > 1 else (a == b == cycle[0])
            if not in_cycle:
                continue
            if best is None or (edge.path, edge.line, edge.acquired) < (
                best.path,
                best.line,
                best.acquired,
            ):
                best = edge
        return best

    # -- DLK002: cross-boundary acquire-while-held ----------------------
    def _check_dlk002(self) -> None:
        for (a, b) in sorted(self.flow.edges):
            if a == b:
                continue
            owner_a = self.locks[a].owner or self.locks[a].name.rsplit(".", 1)[0]
            owner_b = self.locks[b].owner or self.locks[b].name.rsplit(".", 1)[0]
            if owner_a == owner_b:
                continue
            edge = self.flow.edges[(a, b)]
            self.out.append(
                diag(
                    "DLK002",
                    f"{b} acquired while holding {a}: a cross-backend lock"
                    " nesting; the inner layer must never call back into"
                    f" {owner_a} or the pair becomes a deadlock cycle",
                    edge.fn,
                    edge.path,
                    edge.node,
                )
            )

    # -- DLK003: protected field written without the lock ---------------
    def _relevant_writes(self) -> list[_Write]:
        return [
            w
            for key, w in sorted(self.flow.writes.items())
            if w.fn not in self._exempt
        ]

    def _check_dlk003(self) -> None:
        writes = self._relevant_writes()
        owners: dict[str, list[str]] = {}
        for lock in self.locks.values():
            if lock.owner is not None:
                owners.setdefault(lock.owner, []).append(lock.name)
        #: (cls, attr) -> locks some write holds
        protected: dict[tuple[str, str], set[str]] = {}
        for w in writes:
            for lock_name in owners.get(w.cls, ()):
                if any(lock_name in ctx for ctx in w.ctxs):
                    protected.setdefault((w.cls, w.attr), set()).add(lock_name)
        for w in writes:
            have = protected.get((w.cls, w.attr))
            if not have:
                continue
            for lock_name in sorted(have):
                missing = [ctx for ctx in w.ctxs if lock_name not in ctx]
                if missing:
                    self.out.append(
                        diag(
                            "DLK003",
                            f"{w.cls}.{w.attr} is protected by {lock_name}"
                            " elsewhere but written here on a path that does"
                            " not hold it",
                            w.fn,
                            w.path,
                            w.node,
                        )
                    )
                    break

    # -- RACE001: multi-root writes with an unguarded access ------------
    def _check_race001(self) -> None:
        by_field: dict[tuple[str, str], list[_Write]] = {}
        for w in self._relevant_writes():
            by_field.setdefault((w.cls, w.attr), []).append(w)
        for (cls, attr) in sorted(by_field):
            ws = by_field[(cls, attr)]
            roots: set[tuple[str, str]] = set()
            for w in ws:
                roots |= self._labels.get(w.fn, set())
            if len(roots) < 2 or not any(kind == "thread" for kind, _ in roots):
                continue
            unguarded = [w for w in ws if any(not ctx for ctx in w.ctxs)]
            if not unguarded:
                continue
            w = min(unguarded, key=lambda w: (w.path, w.line))
            names = ", ".join(sorted({r for _, r in roots}))
            self.out.append(
                diag(
                    "RACE001",
                    f"{cls}.{attr} is written from {len(roots)} roots"
                    f" ({names}) and this write holds no lock: concurrent"
                    " writes race; guard every access with one lock",
                    w.fn,
                    w.path,
                    w.node,
                )
            )

    # -- RACE002 / RACE003: lazy init and check-then-act ----------------
    def _concurrent_classes(self) -> set[str]:
        out = {info.owner for info in self.locks.values() if info.owner is not None}
        for q, labels in self._labels.items():
            if any(kind in ("thread", "scoped") for kind, _ in labels):
                cls = self.graph.functions[q].cls
                if cls is not None:
                    out.add(cls)
        return out

    def _container_fields(self) -> set[tuple[str, str]]:
        return {
            (w.cls, w.attr)
            for w in self.flow.writes.values()
            if w.is_container_value
        }

    def _check_race002_race003(self) -> None:
        concurrent = self._concurrent_classes()
        containers = self._container_fields()
        for q in sorted(self.graph.functions):
            fn = self.graph.functions[q]
            if fn.cls is None or fn.cls not in concurrent or q in self._exempt:
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.If):
                    continue
                ctxs = self.flow.if_ctxs.get((q, node.lineno, node.col_offset))
                if ctxs is None or not any(not ctx for ctx in ctxs):
                    continue  # never reached lock-free: synchronized
                attr = _lazy_init_attr(node)
                if attr is not None:
                    self.out.append(
                        diag(
                            "RACE002",
                            f"unsynchronized lazy initialisation of"
                            f" {fn.cls}.{attr}: two threads can both see None"
                            " and construct twice; double-check under a lock",
                            q,
                            fn.path,
                            node,
                        )
                    )
                    continue
                attr = _check_then_act_attr(node, containers, fn.cls)
                if attr is not None:
                    self.out.append(
                        diag(
                            "RACE003",
                            f"non-atomic check-then-act on shared container"
                            f" {fn.cls}.{attr}: the test and the mutation are"
                            " two steps; another thread can interleave —"
                            " hold a lock across both",
                            q,
                            fn.path,
                            node,
                        )
                    )


def _lazy_init_attr(node: ast.If) -> Optional[str]:
    """``self.x`` when ``node`` is ``if self.x is None: self.x = make()``."""
    test = node.test
    attr: Optional[str] = None
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(test.ops[0], ast.Is):
        if isinstance(test.comparators[0], ast.Constant) and test.comparators[0].value is None:
            attr = self_attr(test.left)
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        attr = self_attr(test.operand)
    if attr is None:
        return None
    for stmt in node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and self_attr(stmt.targets[0]) == attr
            and isinstance(stmt.value, ast.Call)
        ):
            return attr
    return None


def _check_then_act_attr(
    node: ast.If, containers: set[tuple[str, str]], cls: str
) -> Optional[str]:
    """``self.x`` when ``node`` tests container ``self.x`` then mutates it."""
    tested: set[str] = set()
    test = node.test
    if isinstance(test, ast.Compare) and any(
        isinstance(op, (ast.In, ast.NotIn)) for op in test.ops
    ):
        for part in [test.left, *test.comparators]:
            attr = self_attr(part)
            if attr is not None:
                tested.add(attr)
    else:
        target = test
        if isinstance(target, ast.UnaryOp) and isinstance(target.op, ast.Not):
            target = target.operand
        attr = self_attr(target)
        if attr is not None:
            tested.add(attr)
    tested = {a for a in tested if (cls, a) in containers}
    if not tested:
        return None
    for stmt in ast.walk(node):
        if isinstance(stmt, (ast.Assign, ast.Delete)):
            for t in stmt.targets:
                if isinstance(t, ast.Subscript):
                    attr = self_attr(t.value)
                    if attr in tested:
                        return attr
        elif isinstance(stmt, ast.Call) and isinstance(stmt.func, ast.Attribute):
            if stmt.func.attr in MUTATING_METHODS:
                attr = self_attr(stmt.func.value)
                if attr in tested:
                    return attr
    return None


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def concurrency_findings(graph: CallGraph) -> list[Diagnostic]:
    """Raw DLK/RACE findings over an already-built call graph."""
    return _ConcurrencyChecker(graph).run()


#: ``concurrency_diagnostics(graph, *, ignore=())`` / ``analyze_concurrency(
#: paths, *, ignore=())``: the findings above with suppressions applied
concurrency_diagnostics, analyze_concurrency = graph_entry_points(concurrency_findings)


def check_sanitizer_report(
    graph: CallGraph, report: dict[str, object], *, ignore: Iterable[str] = ()
) -> list[Diagnostic]:
    """Cross-check a sanitizer JSON report against the static lock graph.

    Runtime-recorded inversions become DLK001 findings directly; the
    observed edges are then merged into the static graph and cycle
    detection re-run, so a runtime order closing a statically-known
    half-cycle also gates.
    """
    static = lock_order_edges(graph)
    out: list[Diagnostic] = []

    def finding(message: str) -> Diagnostic:
        return diag("DLK001", message, "sanitizer", "<sanitizer-report>", ast.Pass())

    inversions = report.get("inversions") or []
    if isinstance(inversions, list):
        for pair in inversions:
            if isinstance(pair, (list, tuple)) and len(pair) == 2:
                a, b = str(pair[0]), str(pair[1])
                out.append(
                    finding(
                        f"runtime lock-order inversion observed: {a} and {b}"
                        " were each acquired while the other was held"
                    )
                )
    runtime_edges: list[tuple[str, str]] = []
    raw_edges = report.get("edges") or []
    if isinstance(raw_edges, list):
        for entry in raw_edges:
            if isinstance(entry, dict) and "held" in entry and "acquired" in entry:
                runtime_edges.append((str(entry["held"]), str(entry["acquired"])))
    known = set(find_cycles(static))
    for cycle in find_cycles(list(static) + runtime_edges):
        if cycle in known:
            continue
        chain = " -> ".join(cycle + (cycle[0],)) if len(cycle) > 1 else cycle[0]
        out.append(
            finding(
                f"lock-order cycle {chain} closed by runtime-observed"
                " edges: the static graph alone did not contain it, the"
                " sanitized run did"
            )
        )
    return filter_diagnostics(out, ignore=ignore)
