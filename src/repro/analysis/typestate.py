"""Typestate & concurrency-discipline verification for protocol objects.

The collaboration substrate is a web of small protocol state machines —
cooperative object locks (request → grant → release, revocation on
leave), RTP fragment reassembly, SNMP manager sessions, subscription
attach/detach — and a client that drives one of them out of order fails
only at run time, if at all.  This pass checks them statically, in the
style of Strom & Yemini's typestate and RacerD's lock discipline.

**Protocol automata (TSP001–007).**  A declarative registry
(:data:`PROTOCOLS`) describes each protocol object as a finite
automaton: states, events (method calls and attribute stores), allowed
source states and target state per event.  A path-sensitive walker
tracks the *set of possible states* per tracked instance (the same
open/closed/maybe lattice the resource pass uses, generalized to
arbitrary automata) and flags an event only when the possible-state set
is disjoint from the event's allowed states — definite violations, not
maybes.  Guards like ``if part.complete:`` narrow the state set on each
branch.  Instances are tracked from constructors, registered factory
methods (``bus.attach(...)``), annotated parameters, and typed ``self``
attributes; lock events are additionally keyed by their (object,
client) arguments so independent locks don't alias.

Two structural rules ride along: TSP003 (a class that drives the lock
manager handles ``LeaveEvent`` without revoking the departed client's
locks) and TSP004 (RTP fragments constructed with out-of-order constant
``frag_index``).

**Callback-context concurrency (CON001–003).**  Functions reachable
from delivery-callback registrations (``on_receive=`` /
``on_delivery=`` / RTP reassembly / bus attach) form the *callback
context*: code that runs inside a dispatch, not under the caller's
control.  CON001 flags direct mutation of shared coordination state
(:data:`SHARED_STATE_CLASSES`: ``Arbiter`` / ``LockManager`` /
``SemanticBus``) from that context — deferring through the event loop
(a nested def or lambda handed to the scheduler) is the sanctioned
route and is excluded.  CON002 flags synchronous re-entry into
``SemanticBus.publish`` from a delivery callback (unbounded recursion
when two handlers republish at each other).  CON003 flags a
module-level mutable container mutated by a callback registered from
more than one thread-rooted entry point.

Everything reports through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model, so
``# repro: ignore[TSP005]`` suppressions, severity gating, baseline
fingerprints, and SARIF all apply.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Union

from .callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    annotation_class_name,
    module_name_for_path,
    name_binding,
    rightmost_name,
    self_attr,
)
from .diagnostics import Diagnostic
from .passes import (
    MUTATING_METHODS,
    PathWalker,
    Registration,
    bus_like_receiver,
    delivery_registrations,
    diag,
    graph_entry_points,
    is_container_value,
    reachable,
    resolve_callback_ref,
)

__all__ = [
    "EventRule",
    "ProtocolSpec",
    "PROTOCOLS",
    "SHARED_STATE_CLASSES",
    "typestate_findings",
    "typestate_diagnostics",
    "analyze_typestate",
]


# ======================================================================
# the automaton registry
# ======================================================================
@dataclass(frozen=True)
class EventRule:
    """One protocol event: a method call or an attribute store.

    ``allowed`` are the automaton states the event is legal in; firing
    it from a state set *disjoint* from ``allowed`` reports ``code``.
    ``target`` is the state after the event (``None`` = unchanged).
    """

    event: str
    kind: str = "call"  #: "call" (method) or "set" (attribute store)
    allowed: frozenset[str] = frozenset()
    target: Optional[str] = None
    code: Optional[str] = None  #: rule to report on violation; None = never
    message: str = ""  #: template; {var} and {key} interpolate


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol object class as a declarative automaton."""

    name: str
    cls: str  #: class short name of the protocol object
    states: frozenset[str]
    initial: str  #: state of freshly constructed instances
    rules: tuple[EventRule, ...]
    #: attr -> (state when truthy, state when falsy): ``if x.attr:`` narrows
    guards: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: leading call-argument count that keys the instance (lock key/client)
    keyed_args: int = 0
    #: attribute names whose mutation widens the state back to ⊤
    resets: frozenset[str] = frozenset()
    #: method names that *return* a fresh instance in ``initial`` state
    factory_methods: frozenset[str] = frozenset()
    #: receiver requirement for factories: class short names, or textual
    #: receiver-name suffixes (lowercase) the receiver must end with
    factory_recv: tuple[str, ...] = ()

    def rule_for(self, event: str, kind: str) -> Optional[EventRule]:
        for r in self.rules:
            if r.event == event and r.kind == kind:
                return r
        return None


_SNMP_REQUEST_METHODS = (
    "get",
    "get_scalar",
    "get_next",
    "walk",
    "set",
    "get_bulk",
    "bulk_walk",
)

PROTOCOLS: tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        name="lock-discipline",
        cls="LockManager",
        states=frozenset({"held", "unheld"}),
        initial="unheld",
        keyed_args=2,  # (object key, client id) identify one lock instance
        rules=(
            EventRule(
                "acquire",
                allowed=frozenset({"unheld"}),
                target="held",
                code="TSP002",
                message="double acquire: {var}.acquire({key}) while this"
                " holder already has the lock on this path",
            ),
            EventRule(
                "release",
                allowed=frozenset({"held"}),
                target="unheld",
                code="TSP001",
                message="release without acquire: {var}.release({key}) but"
                " the lock is not held on this path",
            ),
        ),
    ),
    ProtocolSpec(
        name="rtp-reassembly",
        cls="_PartialMessage",
        states=frozenset({"incomplete", "complete"}),
        initial="incomplete",
        rules=(
            EventRule(
                "assemble",
                allowed=frozenset({"complete"}),
                target="complete",
                code="TSP005",
                message="{var}.assemble() before all frag_count fragments"
                " arrived on this path; guard with `if {var}.complete:`",
            ),
        ),
        guards={"complete": ("complete", "incomplete")},
        resets=frozenset({"fragments"}),
    ),
    ProtocolSpec(
        name="snmp-session",
        cls="SnmpManager",
        states=frozenset({"open", "closed"}),
        initial="open",
        rules=tuple(
            EventRule(
                m,
                allowed=frozenset({"open"}),
                code="TSP006",
                message="{var}.%s() after the SNMP session was closed" % m,
            )
            for m in _SNMP_REQUEST_METHODS
        )
        + (
            # close is idempotent: legal from either state
            EventRule("close", allowed=frozenset({"open", "closed"}), target="closed"),
        ),
    ),
    ProtocolSpec(
        name="subscription-lifecycle",
        cls="Subscription",
        states=frozenset({"attached", "detached"}),
        initial="attached",
        rules=(
            EventRule(
                "detach", allowed=frozenset({"attached", "detached"}), target="detached"
            ),
            EventRule(
                "callback",
                kind="call",
                allowed=frozenset({"attached"}),
                code="TSP007",
                message="delivery via {var}.callback() on a detached subscription",
            ),
            EventRule(
                "callback",
                kind="set",
                allowed=frozenset({"attached"}),
                code="TSP007",
                message="callback registered on detached subscription {var}",
            ),
            EventRule(
                "active",
                kind="set",
                allowed=frozenset({"attached"}),
                code="TSP007",
                message="re-attach through a stale handle: {var}.active"
                " assigned after detach",
            ),
        ),
        guards={"active": ("attached", "detached")},
        factory_methods=frozenset({"attach"}),
        factory_recv=("SemanticBus", "bus"),
    ),
)

#: classes whose state is shared coordination state for CON001
SHARED_STATE_CLASSES: tuple[str, ...] = ("Arbiter", "LockManager", "SemanticBus")


# ======================================================================
# shared helpers
# ======================================================================
def _var_of(expr: ast.expr) -> Optional[str]:
    """Trackable variable name: ``x`` or ``self.attr``."""
    if isinstance(expr, ast.Name):
        return expr.id
    attr = self_attr(expr)
    return f"self.{attr}" if attr is not None else None


def _stored_attribute(target: ast.expr) -> Optional[ast.Attribute]:
    """The attribute a store lands in: ``x.attr = ...`` or ``x.attr[i] = ...``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    return target if isinstance(target, ast.Attribute) else None


def _expr_key(expr: ast.expr) -> Optional[str]:
    """Canonical textual key for an event argument, or None if opaque."""
    if isinstance(expr, ast.Constant):
        return repr(expr.value)
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _expr_key(expr.value)
        return f"{base}.{expr.attr}" if base is not None else None
    return None


def _deferred_nodes(fn_node: ast.AST) -> set[int]:
    """ids of nodes inside nested defs/lambdas: deferred execution."""
    out: set[int] = set()
    for node in ast.walk(fn_node):
        if node is fn_node:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for sub in ast.walk(node):
                if sub is not node:
                    out.add(id(sub))
    return out


InstanceId = Union[str, tuple]


# ======================================================================
# the path-sensitive automaton walker (TSP001/002/005/006/007)
# ======================================================================
class _TypestateChecker(PathWalker):
    """Interpret each function against every protocol automaton."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.diags: list[Diagnostic] = []
        self._specs_by_cls = {s.cls: s for s in PROTOCOLS}
        # per-function walk state
        self.fn: FunctionInfo = None  # type: ignore[assignment]
        self.instances: dict[str, ProtocolSpec] = {}
        self.defaults: dict[str, frozenset[str]] = {}
        self._sites: dict[int, CallSite] = {}

    def run(self) -> list[Diagnostic]:
        skip = set(self._specs_by_cls)
        for fn in self.graph.functions.values():
            if fn.cls in skip:
                continue  # the protocol class's own internals
            self._check_function(fn)
        return self.diags

    # -- per-function setup ---------------------------------------------
    def _check_function(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.instances = {}
        self.defaults = {}
        self._sites = self.graph.sites_by_node(fn.qualname)
        self._seed_params(fn)
        self._seed_self_attrs(fn)
        # cheap bail-out: no tracked instance and no constructor/factory
        if not self.instances and not self._mentions_protocol(fn):
            return
        state: dict[InstanceId, frozenset[str]] = {}
        self.walk(fn.node.body, state)

    def _mentions_protocol(self, fn: FunctionInfo) -> bool:
        for site in self.graph.calls_from(fn.qualname):
            if site.method in self._specs_by_cls:
                return True
            for spec in PROTOCOLS:
                if spec.factory_methods and site.method in spec.factory_methods:
                    return True
        return False

    def _seed_params(self, fn: FunctionInfo) -> None:
        for arg in list(fn.node.args.args) + list(fn.node.args.kwonlyargs):
            spec = self._specs_by_cls.get(annotation_class_name(arg.annotation) or "")
            if spec is not None:
                self._register(arg.arg, spec, spec.states)  # prior state unknown

    def _seed_self_attrs(self, fn: FunctionInfo) -> None:
        if fn.cls is None:
            return
        for (cls, attr), typ in self.graph.attr_types.items():
            if cls != fn.cls:
                continue
            spec = self._specs_by_cls.get(typ)
            if spec is not None:
                self._register(f"self.{attr}", spec, spec.states)

    def _register(self, var: str, spec: ProtocolSpec, default: frozenset[str]) -> None:
        self.instances[var] = spec
        self.defaults[var] = default

    # -- PathWalker hooks -----------------------------------------------
    def assign(
        self, var: str, value: ast.expr, state: dict[InstanceId, frozenset[str]]
    ) -> None:
        """``var = value``: seed from constructor/factory, or kill."""
        if isinstance(value, ast.Call):
            ctor = rightmost_name(value.func)
            spec = self._specs_by_cls.get(ctor or "") or self._factory_spec(value)
            if spec is not None:
                self._register(var, spec, frozenset({spec.initial}))
                self._purge(var, state)
                state[var] = frozenset({spec.initial})
                return
        if var in self.instances:  # re-bound to something untracked
            self.instances.pop(var, None)
            self.defaults.pop(var, None)
            self._purge(var, state)

    def _factory_spec(self, call: ast.Call) -> Optional[ProtocolSpec]:
        if not isinstance(call.func, ast.Attribute):
            return None
        method = call.func.attr
        for spec in PROTOCOLS:
            if method not in spec.factory_methods:
                continue
            site = self._sites.get(id(call))
            if site is not None and site.recv_type in spec.factory_recv:
                return spec
            recv = rightmost_name(call.func.value)
            if recv is not None and any(
                recv.lower() == want.lower() or recv.lower().endswith(want.lower())
                for want in spec.factory_recv
                if not want[0].isupper()
            ):
                return spec
        return None

    def _purge(self, var: str, state: dict[InstanceId, frozenset[str]]) -> None:
        for iid in list(state):
            if iid == var or (isinstance(iid, tuple) and iid[0] == var):
                del state[iid]

    def merge(
        self,
        into: dict[InstanceId, frozenset[str]],
        s1: dict[InstanceId, frozenset[str]],
        s2: dict[InstanceId, frozenset[str]],
    ) -> None:
        into.clear()
        for iid in set(s1) | set(s2):
            var = iid if isinstance(iid, str) else iid[0]
            spec = self.instances.get(var)
            top = spec.states if spec is not None else frozenset()
            default = self.defaults.get(var, top)
            into[iid] = s1.get(iid, default) | s2.get(iid, default)

    # -- guard narrowing ------------------------------------------------
    def narrow(
        self, test: ast.expr, state: dict[InstanceId, frozenset[str]], negate: bool
    ) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self.narrow(test.operand, state, not negate)
            return
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) and not negate:
            for value in test.values:  # every conjunct holds on the true branch
                self.narrow(value, state, negate=False)
            return
        if not isinstance(test, ast.Attribute):
            return
        var = _var_of(test.value)
        if var is None:
            return
        spec = self.instances.get(var)
        if spec is None:
            return
        states = spec.guards.get(test.attr)
        if states is None:
            return
        truthy, falsy = states
        state[var] = frozenset({falsy if negate else truthy})

    # -- event scanning -------------------------------------------------
    def scan(self, node: ast.AST, state: dict[InstanceId, frozenset[str]]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # deferred bodies are not on this path
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                var = _var_of(sub.func.value)
                if var is not None and var in self.instances:
                    self._event(var, "call", sub.func.attr, sub, state)
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    self._store_event(target, sub, state)

    def _store_event(
        self, target: ast.expr, stmt: ast.stmt, state: dict[InstanceId, frozenset[str]]
    ) -> None:
        attr_node = _stored_attribute(target)
        if attr_node is None:
            return
        var = _var_of(attr_node.value)
        if var is None or var not in self.instances:
            return
        spec = self.instances[var]
        if attr_node.attr in spec.resets:
            state[var] = spec.states  # mutation: state unknown again
            return
        if attr_node is target:  # `var.attr[i] = ...` only resets, never a "set"
            self._event(var, "set", attr_node.attr, stmt, state)

    def _event(
        self,
        var: str,
        kind: str,
        name: str,
        node: ast.AST,
        state: dict[InstanceId, frozenset[str]],
    ) -> None:
        spec = self.instances[var]
        rule = spec.rule_for(name, kind)
        if rule is None:
            return
        iid: InstanceId = var
        key_text = ""
        if spec.keyed_args and kind == "call":
            call = node if isinstance(node, ast.Call) else None
            if call is None or len(call.args) < spec.keyed_args:
                return  # can't key this event
            keys = [_expr_key(a) for a in call.args[: spec.keyed_args]]
            if any(k is None for k in keys):
                return  # opaque key expression: don't guess
            iid = (var, *keys)
            key_text = ", ".join(k for k in keys if k is not None)
        current = state.get(iid, self.defaults.get(var, spec.states))
        if rule.code is not None and not (current & rule.allowed):
            self.diags.append(
                diag(
                    rule.code,
                    rule.message.format(var=var, key=key_text),
                    self.fn.qualname,
                    self.fn.path,
                    node,
                )
            )
        if rule.target is not None:
            state[iid] = frozenset({rule.target})


# ======================================================================
# TSP004: fragment emission order
# ======================================================================
class _FragOrderChecker:
    """Constant ``frag_index`` values must increase within a function."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.diags: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        for fn in self.graph.functions.values():
            emitted: list[tuple[int, ast.Call]] = []
            for node in ast.walk(fn.node):
                if not (isinstance(node, ast.Call) and rightmost_name(node.func) == "RtpPacket"):
                    continue
                idx = self._frag_index(node)
                if idx is not None:
                    emitted.append((idx, node))
            emitted.sort(key=lambda p: (p[1].lineno, p[1].col_offset))
            for (prev, _), (cur, node) in zip(emitted, emitted[1:]):
                if cur <= prev:
                    self.diags.append(
                        diag(
                            "TSP004",
                            f"RTP fragment emitted out of order: frag_index"
                            f" {cur} after {prev}",
                            fn.qualname,
                            fn.path,
                            node,
                        )
                    )
        return self.diags

    @staticmethod
    def _frag_index(call: ast.Call) -> Optional[int]:
        expr: Optional[ast.expr] = None
        if len(call.args) > 2:
            expr = call.args[2]
        for kw in call.keywords:
            if kw.arg == "frag_index":
                expr = kw.value
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value
        return None


# ======================================================================
# TSP003: lock revocation on LeaveEvent paths
# ======================================================================
class _LeaveRevocationChecker:
    """A class that drives the lock manager must revoke on leave."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.diags: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        lock_classes = self._lock_using_classes()
        if not lock_classes:
            return self.diags
        for fn in self.graph.functions.values():
            if fn.cls not in lock_classes or fn.cls == "LockManager":
                continue
            node = self._leave_test(fn)
            if node is None:
                continue
            if not any(
                site.method == "drop_client"
                for q in reachable(self.graph, [fn.qualname])
                for site in self.graph.calls_from(q)
            ):
                self.diags.append(
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
        return self.diags

    def _lock_using_classes(self) -> set[str]:
        out: set[str] = set()
        for site in self.graph.calls:
            if site.method not in ("acquire", "release", "drop_client"):
                continue
            if site.recv_type == "LockManager" or ".locks." in site.func_repr:
                fn = self.graph.functions.get(site.caller)
                if fn is not None and fn.cls is not None:
                    out.add(fn.cls)
        return out

    @staticmethod
    def _leave_test(fn: FunctionInfo) -> Optional[ast.AST]:
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and rightmost_name(node.func) == "isinstance"
                and len(node.args) == 2
                and rightmost_name(node.args[1]) == "LeaveEvent"
            ):
                return node
        return None


# ======================================================================
# CON001–003: callback-context concurrency discipline
# ======================================================================
class _ConcurrencyChecker:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.diags: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        registrations = delivery_registrations(self.graph)
        in_context = reachable(self.graph, {reg.target for reg in registrations})
        shared_methods = {
            q for q in in_context if self.graph.functions[q].cls in SHARED_STATE_CLASSES
        }
        for q in sorted(in_context - shared_methods):
            fn = self.graph.functions[q]
            self._check_mutations(fn)
            self._check_publish(fn)
        self._check_thread_captures(registrations)
        return self.diags

    # -- CON001: direct shared-state mutation ---------------------------
    def _shared_vars(self, fn: FunctionInfo) -> set[str]:
        out: set[str] = set()
        for arg in list(fn.node.args.args) + list(fn.node.args.kwonlyargs):
            name = rightmost_name(arg.annotation) if arg.annotation is not None else None
            if name in SHARED_STATE_CLASSES:
                out.add(arg.arg)
        if fn.cls is not None:
            for (cls, attr), typ in self.graph.attr_types.items():
                if cls == fn.cls and typ in SHARED_STATE_CLASSES:
                    out.add(f"self.{attr}")
        for node in ast.walk(fn.node):
            bound = name_binding(node)
            if (
                bound is not None
                and isinstance(bound[1], ast.Call)
                and rightmost_name(bound[1].func) in SHARED_STATE_CLASSES
            ):
                out.add(bound[0])
        return out

    def _check_mutations(self, fn: FunctionInfo) -> None:
        shared = self._shared_vars(fn)
        if not shared:
            return
        deferred = _deferred_nodes(fn.node)
        for node in ast.walk(fn.node):
            if id(node) in deferred:
                continue  # handed to the event loop: the sanctioned route
            mutated = self._mutated_shared(node, shared)
            if mutated is not None:
                self.diags.append(
                    diag(
                        "CON001",
                        f"shared {mutated} state mutated directly from a"
                        " delivery-callback context; route the change"
                        " through the event loop instead",
                        fn.qualname,
                        fn.path,
                        node,
                    )
                )

    def _mutated_shared(self, node: ast.AST, shared: set[str]) -> Optional[str]:
        """Name of the shared var ``node`` mutates directly, if any."""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr_node = _stored_attribute(target)
                var = _var_of(attr_node.value) if attr_node is not None else None
                if var in shared:
                    return var
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Attribute)
        ):
            var = _var_of(node.func.value.value)
            if var in shared:
                return var
        return None

    # -- CON002: synchronous republish ----------------------------------
    def _check_publish(self, fn: FunctionInfo) -> None:
        deferred = _deferred_nodes(fn.node)
        for site in self.graph.calls_from(fn.qualname):
            if site.method != "publish" or id(site.node) in deferred:
                continue
            if bus_like_receiver(site):
                self.diags.append(
                    diag(
                        "CON002",
                        "SemanticBus.publish() called synchronously from a"
                        " delivery-callback context (re-entrant dispatch can"
                        " recurse without bound); defer via the scheduler",
                        fn.qualname,
                        fn.path,
                        site.node,
                    )
                )

    # -- CON003: cross-thread captured containers -----------------------
    def _thread_roots(self) -> set[str]:
        out: set[str] = set()
        for site in self.graph.calls:
            if site.method != "Thread":
                continue
            fn = self.graph.functions.get(site.caller)
            if fn is None:
                continue
            for kw in site.node.keywords:
                if kw.arg == "target":
                    target = resolve_callback_ref(kw.value, fn, self.graph)
                    if target is not None:
                        out.add(target)
        return out

    def _check_thread_captures(self, registrations: list[Registration]) -> None:
        thread_roots = self._thread_roots()
        if not thread_roots:
            return
        thread_reach = reachable(self.graph, thread_roots)
        containers = self._module_containers()
        # context of each registration: which thread root (or main) ran it
        contexts: dict[str, set[str]] = {}
        for reg in registrations:
            registrar = reg.registrar.qualname
            ctx = registrar if registrar in thread_reach else "<main>"
            contexts.setdefault(reg.target, set()).add(ctx)
        for target, ctxs in sorted(contexts.items()):
            if len(ctxs) < 2:
                continue
            fn = self.graph.functions.get(target)
            if fn is None:
                continue
            names = containers.get(fn.module, frozenset())
            mutated = self._mutated_container(fn, names)
            if mutated is not None:
                self.diags.append(
                    diag(
                        "CON003",
                        f"container '{mutated}' is mutated by callback"
                        f" {fn.name}() registered from {len(ctxs)} different"
                        " thread-rooted entry points (unsynchronized shared"
                        " state)",
                        target,
                        fn.path,
                        fn.node,
                    )
                )

    def _module_containers(self) -> dict[str, frozenset[str]]:
        """Module -> names bound to mutable containers at module level."""
        out: dict[str, set[str]] = {}
        for path, tree in self.graph.trees.items():
            module = module_name_for_path(path)
            names = out.setdefault(module, set())
            for node in tree.body:
                bound = name_binding(node)
                if bound is not None and is_container_value(bound[1]):
                    names.add(bound[0])
        return {m: frozenset(s) for m, s in out.items()}

    @staticmethod
    def _mutated_container(fn: FunctionInfo, names: frozenset[str]) -> Optional[str]:
        if not names:
            return None
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in names
            ):
                return node.func.value.id
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in names
                    ):
                        return target.value.id
        return None


# ======================================================================
# entry points
# ======================================================================
def typestate_findings(graph: CallGraph) -> list[Diagnostic]:
    """Raw TSP/CON findings over an already-built call graph."""
    diags: list[Diagnostic] = []
    diags.extend(_TypestateChecker(graph).run())
    diags.extend(_FragOrderChecker(graph).run())
    diags.extend(_LeaveRevocationChecker(graph).run())
    diags.extend(_ConcurrencyChecker(graph).run())
    return diags


#: ``typestate_diagnostics(graph, *, ignore=())`` / ``analyze_typestate(paths,
#: *, ignore=())``: the findings above with suppressions applied
typestate_diagnostics, analyze_typestate = graph_entry_points(typestate_findings)
