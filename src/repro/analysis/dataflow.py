"""Cross-layer dataflow verification: units and exception flow.

Two rule families run over the :mod:`~repro.analysis.callgraph`:

**Units (UNI001–005).**  An abstract domain of physical units — dB vs
linear ratio, W/mW, bps/kbps/bytes-per-second, s/ms/µs, bytes/bits/
packets — seeded from a registry of known signatures (``to_db``,
``from_db``, scheduler delays, MIB gauge scales) and from naming
conventions (``*_db``, ``*_bps``, ``*_ms``, ...), then propagated
intraprocedurally with call-graph return summaries.  Mixed-unit
arithmetic, dB-for-linear call arguments, and mis-scaled SNMP gauge
probes are flagged.

**Exception flow (EXC001–003).**  A fixpoint over the call graph
computes which exception types can escape each function (raises, minus
enclosing handlers, plus callee summaries).  Callbacks registered on
delivery boundaries (``on_receive=``/``on_delivery=``/RTP reassembly)
must not leak codec/wire errors; scheduler callbacks must not leak at
all; handlers on dispatch paths must not silently swallow failures.

Every finding flows through the shared :class:`~repro.analysis.diagnostics.Diagnostic`
model, so ``# repro: ignore[CODE]`` suppression, severity gating and
SARIF output all apply.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from .callgraph import CallGraph, CallSite, FunctionInfo, name_binding, rightmost_name
from .diagnostics import Diagnostic
from .passes import (
    Registration,
    delivery_registrations,
    diag,
    graph_entry_points,
    resolve_callback_ref,
    solve,
)

__all__ = [
    "Unit",
    "UNIT_DIMENSIONS",
    "UNIT_SCALES",
    "SIGNATURES",
    "METHOD_SIGNATURES",
    "GAUGE_UNITS",
    "WIRE_ERROR_TYPES",
    "UnitSig",
    "compute_escaping_exceptions",
    "compute_return_units",
    "dataflow_findings",
    "dataflow_diagnostics",
    "analyze_dataflow",
]


# ======================================================================
# the unit domain
# ======================================================================
class Unit:
    """String-valued unit constants (a flat abstract domain + UNKNOWN)."""

    DB = "dB"
    LINEAR = "linear"
    WATT = "W"
    MILLIWATT = "mW"
    BPS = "bit/s"
    KBPS = "kbit/s"
    BYTES_PER_SEC = "byte/s"
    SECONDS = "s"
    MILLISECONDS = "ms"
    MICROSECONDS = "us"
    BYTES = "byte"
    BITS = "bit"
    PACKETS = "packet"


#: dimension name -> units belonging to it (units in different dimensions
#: never mix in +/-/comparison; units in the same dimension need a scale
#: conversion)
UNIT_DIMENSIONS: dict[str, frozenset[str]] = {
    "ratio": frozenset({Unit.DB, Unit.LINEAR}),
    "power": frozenset({Unit.WATT, Unit.MILLIWATT}),
    "rate": frozenset({Unit.BPS, Unit.KBPS, Unit.BYTES_PER_SEC}),
    "time": frozenset({Unit.SECONDS, Unit.MILLISECONDS, Unit.MICROSECONDS}),
    "data": frozenset({Unit.BYTES, Unit.BITS, Unit.PACKETS}),
}

#: scale of each unit relative to its dimension's base (for gauge checks);
#: packets have no fixed scale and never convert by a constant factor
UNIT_SCALES: dict[str, float] = {
    Unit.WATT: 1.0,
    Unit.MILLIWATT: 1e-3,
    Unit.BPS: 1.0,
    Unit.KBPS: 1e3,
    Unit.BYTES_PER_SEC: 8.0,
    Unit.SECONDS: 1.0,
    Unit.MILLISECONDS: 1e-3,
    Unit.MICROSECONDS: 1e-6,
    Unit.BITS: 1.0,
    Unit.BYTES: 8.0,
}


def dimension_of(unit: str) -> Optional[str]:
    for dim, members in UNIT_DIMENSIONS.items():
        if unit in members:
            return dim
    return None


def _mismatch_code(a: str, b: str) -> str:
    """Which UNI rule a unit pair violates (assumes ``a != b``)."""
    da, db_ = dimension_of(a), dimension_of(b)
    if da == db_:
        if da == "rate":
            return "UNI003"
        if da == "time":
            return "UNI004"
        if da == "data":
            return "UNI005"
    return "UNI001"


#: ``name`` / ``name_suffix`` -> unit, longest suffix tried first
_NAME_SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_bytes_per_sec", Unit.BYTES_PER_SEC),
    ("_seconds", Unit.SECONDS),
    ("_packets", Unit.PACKETS),
    ("_kbps", Unit.KBPS),
    ("_bytes", Unit.BYTES),
    ("_bits", Unit.BITS),
    ("_secs", Unit.SECONDS),
    ("_sec", Unit.SECONDS),
    ("_bps", Unit.BPS),
    ("_db", Unit.DB),
    ("_ms", Unit.MILLISECONDS),
    ("_us", Unit.MICROSECONDS),
    ("_mw", Unit.MILLIWATT),
)

#: exact variable/parameter names with a conventional meaning in this tree
_NAME_EXACT_UNITS: dict[str, str] = {
    "sir": Unit.LINEAR,
    "gamma": Unit.LINEAR,
    "packet_bits": Unit.BITS,
    "packets": Unit.PACKETS,
}


def unit_from_name(name: str) -> Optional[str]:
    """Unit implied by a variable/parameter/key name, if any."""
    low = name.lower()
    if low in _NAME_EXACT_UNITS:
        return _NAME_EXACT_UNITS[low]
    for suffix, unit in _NAME_SUFFIX_UNITS:
        if low.endswith(suffix) and len(low) > len(suffix):
            return unit
    return None


@dataclass(frozen=True)
class UnitSig:
    """Known units of one callable: parameter units and return unit.

    ``params`` maps positional index (``self`` excluded) *or* keyword
    name to a unit.
    """

    params: dict[object, str] = field(default_factory=dict)
    returns: Optional[str] = None


#: dotted-suffix-keyed signatures for module-level functions
SIGNATURES: dict[str, UnitSig] = {
    "sir.to_db": UnitSig({0: Unit.LINEAR, "x": Unit.LINEAR}, Unit.DB),
    "sir.from_db": UnitSig({0: Unit.DB, "x_db": Unit.DB}, Unit.LINEAR),
    "sir.sir": UnitSig({}, Unit.LINEAR),
    "sir.sir_matrix": UnitSig({}, Unit.LINEAR),
    "sir.sir_db": UnitSig({}, Unit.DB),
    "linkquality.bit_error_rate": UnitSig({0: Unit.LINEAR, "gamma": Unit.LINEAR}, Unit.LINEAR),
    "linkquality.packet_loss_probability": UnitSig(
        {0: Unit.LINEAR, "gamma": Unit.LINEAR, "packet_bits": Unit.BITS}, Unit.LINEAR
    ),
    "linkquality.loss_for_sir_db": UnitSig(
        {0: Unit.DB, "sir_db": Unit.DB, "coding_gain_db": Unit.DB, "packet_bits": Unit.BITS},
        Unit.LINEAR,
    ),
    "powercontrol.frame_success_rate": UnitSig({0: Unit.LINEAR, "gamma": Unit.LINEAR}, Unit.LINEAR),
}

#: (class short name, method) signatures — clock/scheduler times are seconds
METHOD_SIGNATURES: dict[tuple[str, str], UnitSig] = {
    ("Scheduler", "call_after"): UnitSig({0: Unit.SECONDS, "delay": Unit.SECONDS}),
    ("Scheduler", "call_at"): UnitSig({0: Unit.SECONDS, "t": Unit.SECONDS}),
    ("Scheduler", "run_until"): UnitSig({0: Unit.SECONDS, "t": Unit.SECONDS}),
    ("Scheduler", "run_for"): UnitSig({0: Unit.SECONDS, "duration": Unit.SECONDS}),
    ("SirTierPolicy", "tier"): UnitSig({0: Unit.DB, "sir_db": Unit.DB}),
    ("PolicyDatabase", "decide_tier"): UnitSig({0: Unit.DB, "sir_db": Unit.DB}),
}

#: MIB object (rightmost attribute name) -> unit of the raw gauge value,
#: per the TASSL/MIB-II definitions in snmp/oids.py and the bindings in
#: hosts/snmp_binding.py / snmp/switch_binding.py
GAUGE_UNITS: dict[str, str] = {
    "linkBandwidth": Unit.BYTES_PER_SEC,  # TASSL gauge is bytes/s on the wire
    "linkLatencyUs": Unit.MICROSECONDS,
    "linkJitterUs": Unit.MICROSECONDS,
    "ifSpeed": Unit.BPS,  # MIB-II ifSpeed is bits/s
    "ifInOctets": Unit.BYTES,
    "ifOutOctets": Unit.BYTES,
}

#: attribute names with conventional units *inside gauge transforms only*
#: (Link.latency/jitter are seconds, Link.bandwidth is bytes/s in simnet)
_GAUGE_ATTR_UNITS: dict[str, str] = {
    "latency": Unit.SECONDS,
    "jitter": Unit.SECONDS,
    "bandwidth": Unit.BYTES_PER_SEC,
}

#: calls that pass their first argument's unit through unchanged
_IDENTITY_CALLS = frozenset(
    {
        "asarray",
        "atleast_1d",
        "atleast_2d",
        "ascontiguousarray",
        "abs",
        "float",
        "round",
        "minimum",
        "maximum",
        "clip",
        "copy",
        "broadcast_to",
        "full_like",
    }
)


# ======================================================================
# exception-flow registries
# ======================================================================
#: exception types that wire input can trigger: crossing a dispatch
#: boundary unhandled means a malformed datagram kills the event loop
WIRE_ERROR_TYPES = frozenset(
    {
        "WireError",
        "RtpError",
        "BerError",
        "SnmpProtocolError",
        "SerializationError",
        "UnicodeDecodeError",
    }
)

#: builtin exception hierarchy fallback (project classes come from the graph)
_BUILTIN_BASES: dict[str, tuple[str, ...]] = {
    "ValueError": ("Exception",),
    "TypeError": ("Exception",),
    "KeyError": ("LookupError",),
    "IndexError": ("LookupError",),
    "LookupError": ("Exception",),
    "RuntimeError": ("Exception",),
    "OSError": ("Exception",),
    "UnicodeDecodeError": ("ValueError",),
    "ZeroDivisionError": ("ArithmeticError",),
    "ArithmeticError": ("Exception",),
    "StopIteration": ("Exception",),
    "Exception": ("BaseException",),
}

#: path fragments where EXC003 (silent swallow) applies
_DISPATCH_FILE_FRAGMENTS = (
    "messaging/",
    "network/",
    "snmp/",
    "core/matching",
    "core/inference",
    "core/events",
)


# ======================================================================
# UNI: unit propagation
# ======================================================================
def _signature_for(site: CallSite, graph: CallGraph) -> Optional[UnitSig]:
    """Registry or heuristic signature for a call site's target."""
    if site.callee is not None:
        for suffix, sig in SIGNATURES.items():
            if site.callee == suffix or site.callee.endswith("." + suffix):
                return sig
    if site.recv_type is not None:
        sig = METHOD_SIGNATURES.get((site.recv_type, site.method))
        if sig is not None:
            return sig
    # bare-name calls to seeded functions (imported under their own name)
    for suffix, sig in SIGNATURES.items():
        if suffix.endswith("." + site.func_repr):
            return sig
    # project functions: derive param units from parameter names
    if site.callee is not None and site.callee in graph.functions:
        info = graph.functions[site.callee]
        params: dict[object, str] = {}
        for i, p in enumerate(info.params):
            u = unit_from_name(p)
            if u is not None:
                params[i] = u
                params[p] = u
        if params:
            return UnitSig(params)
    return None


def _own_signature(fn: FunctionInfo) -> Optional[UnitSig]:
    """Registry signature of ``fn`` itself (not of something it calls)."""
    for suffix, sig in SIGNATURES.items():
        if fn.qualname.endswith(suffix):
            return sig
    return None


class _UnitEnv:
    """Variable -> unit within one function body."""

    def __init__(self, fn: FunctionInfo, sig: Optional[UnitSig]) -> None:
        self.vars: dict[str, str] = {}
        for i, p in enumerate(fn.params):
            u = None
            if sig is not None:
                u = sig.params.get(i) or sig.params.get(p)
            u = u or unit_from_name(p)
            if u is not None:
                self.vars[p] = u


class _UnitChecker:
    def __init__(self, graph: CallGraph, return_units: dict[str, str]) -> None:
        self.graph = graph
        self.return_units = return_units
        self.diags: list[Diagnostic] = []
        self._sites: dict[int, CallSite] = {}

    # -- expression units ----------------------------------------------
    def unit_of(self, expr: ast.expr, env: _UnitEnv) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return env.vars.get(expr.id) or unit_from_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return unit_from_name(expr.attr)
        if isinstance(expr, ast.Subscript):
            sl = expr.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                return unit_from_name(sl.value)
            return self.unit_of(expr.value, env)
        if isinstance(expr, ast.Constant):
            return None  # dimensionless literal: compatible with anything
        if isinstance(expr, ast.UnaryOp):
            return self.unit_of(expr.operand, env)
        if isinstance(expr, ast.IfExp):
            a = self.unit_of(expr.body, env)
            b = self.unit_of(expr.orelse, env)
            return a if a == b else None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
            a = self.unit_of(expr.left, env)
            b = self.unit_of(expr.right, env)
            if a is not None and b is not None:
                return a if a == b else None
            return a or b
        if isinstance(expr, ast.Call):
            site = self._sites.get(id(expr))
            if site is not None:
                sig = _signature_for(site, self.graph)
                if sig is not None and sig.returns is not None:
                    return sig.returns
                if site.callee is not None and site.callee in self.return_units:
                    return self.return_units[site.callee]
            name = rightmost_name(expr.func)
            if name in _IDENTITY_CALLS and expr.args:
                return self.unit_of(expr.args[0], env)
            return None
        return None

    # -- checks ---------------------------------------------------------
    def check_function(self, fn: FunctionInfo) -> None:
        env = _UnitEnv(fn, _own_signature(fn))
        self._sites = self.graph.sites_by_node(fn.qualname)
        for stmt in ast.walk(fn.node):
            bound = name_binding(stmt)
            if bound is not None:
                target, value = bound
                u = self.unit_of(value, env)
                if u is not None:
                    declared = unit_from_name(target)
                    if declared is not None and declared != u:
                        self.diags.append(
                            diag(
                                _mismatch_code(declared, u),
                                f"'{target}' declares {declared} but is assigned"
                                f" a {u} value",
                                fn.qualname,
                                fn.path,
                                stmt,
                            )
                        )
                    env.vars[target] = u
                else:
                    declared = unit_from_name(target)
                    if declared is not None:
                        env.vars[target] = declared
            elif isinstance(stmt, ast.BinOp) and isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._check_pair(stmt.left, stmt.right, env, fn, stmt, "arithmetic")
            elif isinstance(stmt, ast.Compare) and len(stmt.comparators) == 1:
                self._check_pair(
                    stmt.left, stmt.comparators[0], env, fn, stmt, "comparison"
                )
            elif isinstance(stmt, ast.Call):
                self._check_call(stmt, env, fn)

    def _check_pair(
        self,
        left: ast.expr,
        right: ast.expr,
        env: _UnitEnv,
        fn: FunctionInfo,
        node: ast.AST,
        kind: str,
    ) -> None:
        a = self.unit_of(left, env)
        b = self.unit_of(right, env)
        if a is not None and b is not None and a != b:
            self.diags.append(
                diag(
                    _mismatch_code(a, b),
                    f"{kind} mixes {a} and {b}",
                    fn.qualname,
                    fn.path,
                    node,
                )
            )

    def _check_call(self, call: ast.Call, env: _UnitEnv, fn: FunctionInfo) -> None:
        site = self._sites.get(id(call))
        if site is None:
            return
        sig = _signature_for(site, self.graph)
        if sig is None or not sig.params:
            return
        pairs: list[tuple[object, ast.expr]] = list(enumerate(call.args))
        pairs += [(kw.arg, kw.value) for kw in call.keywords if kw.arg is not None]
        for key, arg in pairs:
            expected = sig.params.get(key)
            if expected is None:
                continue
            actual = self.unit_of(arg, env)
            if actual is None or actual == expected:
                continue
            if {actual, expected} == {Unit.DB, Unit.LINEAR}:
                code = "UNI002"
            else:
                code = _mismatch_code(actual, expected)
            self.diags.append(
                diag(
                    code,
                    f"{site.func_repr}() expects {expected} for"
                    f" {key!r}, got a {actual} value",
                    fn.qualname,
                    fn.path,
                    arg,
                )
            )


def _return_unit(fn: FunctionInfo, checker: _UnitChecker) -> Optional[str]:
    """The unit ``fn`` returns, given the callee summaries ``checker``
    holds (None: unknown, or its returns disagree)."""
    sig = _own_signature(fn)
    if sig is not None and sig.returns is not None:
        return sig.returns
    env = _UnitEnv(fn, sig)
    checker._sites = checker.graph.sites_by_node(fn.qualname)
    units: set[Optional[str]] = set()
    for stmt in ast.walk(fn.node):
        # seed env from simple assignments first (walk order is
        # document order for a function body)
        bound = name_binding(stmt)
        if bound is not None:
            u = checker.unit_of(bound[1], env) or unit_from_name(bound[0])
            if u is not None:
                env.vars[bound[0]] = u
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            units.add(checker.unit_of(stmt.value, env))
    return units.pop() if len(units) == 1 else None


def compute_return_units(graph: CallGraph) -> dict[str, str]:
    """Fixpoint return-unit summaries for project functions: a changed
    summary re-queues its callers (:func:`~repro.analysis.passes.solve`)."""
    out: dict[str, str] = {}
    checker = _UnitChecker(graph, out)

    def visit(q: str) -> list[str]:
        u = _return_unit(graph.functions[q], checker)
        if u is None or out.get(q) == u:
            return []
        out[q] = u
        return sorted(graph.callers_of(q))

    solve(graph.functions, visit)
    return out


# ----------------------------------------------------------------------
# UNI: SNMP gauge / probe scale checking
# ----------------------------------------------------------------------
def _constant_factor(expr: ast.expr, base_unit_of) -> Optional[tuple[Optional[str], float]]:
    """Decompose ``expr`` as (unit-of-source, multiplicative factor).

    Handles ``x``, ``x * k``, ``k * x``, ``x / k`` and nests through
    ``int()`` / ``_numeric()`` style single-argument wrappers.
    """
    if isinstance(expr, ast.Call) and len(expr.args) >= 1:
        return _constant_factor(expr.args[0], base_unit_of)
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Mult):
            for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
                if isinstance(b, ast.Constant) and isinstance(b.value, (int, float)):
                    inner = _constant_factor(a, base_unit_of)
                    if inner is not None:
                        return inner[0], inner[1] * float(b.value)
        elif isinstance(expr.op, ast.Div):
            if isinstance(expr.right, ast.Constant) and isinstance(
                expr.right.value, (int, float)
            ) and expr.right.value != 0:
                inner = _constant_factor(expr.left, base_unit_of)
                if inner is not None:
                    return inner[0], inner[1] / float(expr.right.value)
        return None
    return base_unit_of(expr), 1.0


def _gauge_name(expr: ast.expr) -> Optional[str]:
    """Rightmost known MIB object name in an OID expression."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr in GAUGE_UNITS:
            return node.attr
        if isinstance(node, ast.Name) and node.id in GAUGE_UNITS:
            return node.id
    return None


def _check_scale(
    from_unit: str,
    to_unit: str,
    factor: float,
    subject: str,
    path: str,
    node: ast.AST,
    what: str,
) -> Optional[Diagnostic]:
    if from_unit == to_unit and factor == 1.0:
        return None
    if dimension_of(from_unit) != dimension_of(to_unit):
        return diag(
            _mismatch_code(from_unit, to_unit),
            f"{what}: {from_unit} value delivered as {to_unit}",
            subject,
            path,
            node,
        )
    sf, st = UNIT_SCALES.get(from_unit), UNIT_SCALES.get(to_unit)
    if sf is None or st is None:
        return None  # e.g. packets: no constant conversion exists
    expected = sf / st
    if abs(factor - expected) <= 1e-9 * max(1.0, expected):
        return None
    return diag(
        _mismatch_code(from_unit, to_unit),
        f"{what}: converting {from_unit} to {to_unit} needs a factor of"
        f" {expected:g}, found {factor:g}",
        subject,
        path,
        node,
    )


class _GaugeChecker:
    """Probe registrations and MIB gauge bindings with wrong scales."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.diags: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        for site in self.graph.calls:
            call = site.node
            name = site.method
            if name == "Probe":
                self._check_probe(call, site)
            elif name == "register_callable" and len(call.args) >= 2:
                self._check_binding(call, site)
        self._check_tables()
        return self.diags

    def _resolve_local(self, expr: ast.expr, site: CallSite) -> ast.expr:
        """Chase a Name to a parameter default or local lambda/constant."""
        if not isinstance(expr, ast.Name):
            return expr
        fn = self.graph.functions.get(site.caller)
        if fn is None:
            return expr
        node = fn.node
        args = node.args
        if args.defaults:
            for a, d in zip(args.args[-len(args.defaults) :], args.defaults):
                if a.arg == expr.id:
                    return d
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None and a.arg == expr.id:
                return d
        binding = _local_bindings(node).get(expr.id)
        return binding if binding is not None else expr

    def _check_probe(self, call: ast.Call, site: CallSite) -> None:
        args: dict[str, Optional[ast.expr]] = {
            "oid": call.args[1] if len(call.args) > 1 else None,
            "parameter": call.args[2] if len(call.args) > 2 else None,
            "transform": call.args[3] if len(call.args) > 3 else None,
        }
        for kw in call.keywords:
            if kw.arg in args:
                args[kw.arg] = kw.value
        oid, parameter, transform = args["oid"], args["parameter"], args["transform"]
        if oid is None or parameter is None:
            return
        gauge = _gauge_name(oid)
        if gauge is None:
            return
        parameter = self._resolve_local(parameter, site)
        if not (isinstance(parameter, ast.Constant) and isinstance(parameter.value, str)):
            return
        if transform is not None:
            transform = self._resolve_local(transform, site)
        self._check_probe_scale(gauge, parameter.value, transform, site.path, call)

    def _check_probe_scale(
        self, gauge: str, param: str, transform: Optional[ast.expr], path: str, node: ast.AST
    ) -> None:
        """A probe delivering ``gauge`` as ``param`` must scale between their units."""
        to_unit = unit_from_name(param)
        factor = self._transform_factor(transform)
        if to_unit is None or factor is None:
            return  # parameter declares no unit, or opaque transform: trust it
        d = _check_scale(
            GAUGE_UNITS[gauge],
            to_unit,
            factor,
            f"{gauge} -> {param}",
            path,
            node,
            "SNMP probe scaling",
        )
        if d is not None:
            self.diags.append(d)

    def _check_tables(self) -> None:
        """Registration-table tuples: ``(TASSL.linkBandwidth, "bandwidth_bps",
        transform)`` rows iterated before the ``Probe(...)`` constructor sees
        only loop variables, so match the table literal itself."""
        for fn in self.graph.functions.values():
            node = fn.node
            lambdas = _local_bindings(node)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Tuple) and 2 <= len(sub.elts) <= 4:
                    self._check_table_row(sub, fn.path, lambdas)

    def _check_table_row(
        self, row: ast.Tuple, path: str, lambdas: dict[str, ast.expr]
    ) -> None:
        gauge: Optional[str] = None
        param: Optional[str] = None
        transform: Optional[ast.expr] = None
        for elt in row.elts:
            if gauge is None and isinstance(elt, (ast.Attribute, ast.Call)):
                g = _gauge_name(elt)
                if g is not None:
                    gauge = g
                    continue
            if param is None and isinstance(elt, ast.Constant) and isinstance(
                elt.value, str
            ):
                param = elt.value
                continue
            if transform is None and isinstance(elt, (ast.Lambda, ast.Name)):
                transform = elt
        if gauge is None or param is None:
            return
        if isinstance(transform, ast.Name) and transform.id in lambdas:
            transform = lambdas[transform.id]
        self._check_probe_scale(gauge, param, transform, path, row)

    def _transform_factor(self, transform: Optional[ast.expr]) -> Optional[float]:
        """Multiplicative factor a probe transform applies, if derivable."""
        if transform is None or (
            isinstance(transform, ast.Name) and transform.id in ("_numeric",)
        ):
            return 1.0
        if isinstance(transform, ast.Lambda):
            decomposed = _constant_factor(transform.body, lambda e: None)
            if decomposed is not None:
                return decomposed[1]
        return None

    def _check_binding(self, call: ast.Call, site: CallSite) -> None:
        """``register_callable(TASSL.linkLatencyUs, lambda: Gauge32(x * k))``."""
        gauge = _gauge_name(call.args[0])
        if gauge is None:
            return
        getter = call.args[1]
        if not isinstance(getter, ast.Lambda):
            return
        decomposed = _constant_factor(
            getter.body,
            lambda e: _GAUGE_ATTR_UNITS.get(rightmost_name(e) or "")
            if isinstance(e, (ast.Attribute, ast.Name))
            else None,
        )
        if decomposed is None or decomposed[0] is None:
            return
        from_unit, factor = decomposed
        d = _check_scale(
            from_unit,
            GAUGE_UNITS[gauge],
            factor,
            f"{gauge} binding",
            site.path,
            call,
            "MIB gauge scaling",
        )
        if d is not None:
            self.diags.append(d)


def _local_bindings(fn: ast.AST) -> dict[str, ast.expr]:
    """``name = <lambda or constant>`` bindings inside a function body."""
    out: dict[str, ast.expr] = {}
    for stmt in ast.walk(fn):
        bound: Optional[tuple[str, Optional[ast.expr]]] = name_binding(stmt)
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            bound = stmt.target.id, stmt.value
        if bound is not None and isinstance(bound[1], (ast.Lambda, ast.Constant)):
            out.setdefault(bound[0], bound[1])
    return out


# ======================================================================
# EXC: exception flow
# ======================================================================
def _exception_ancestors(graph: CallGraph, name: str) -> set[str]:
    out = set(graph.ancestors(name))
    frontier = [name] + list(out)
    while frontier:
        n = frontier.pop()
        for base in _BUILTIN_BASES.get(n, ()):
            if base not in out:
                out.add(base)
                frontier.append(base)
    return out


def _handler_catches(graph: CallGraph, handler_types: set[str], exc: str) -> bool:
    if not handler_types:  # bare except
        return True
    if exc in handler_types:
        return True
    return bool(handler_types & _exception_ancestors(graph, exc))


def _handler_type_names(handler: ast.ExceptHandler) -> set[str]:
    t = handler.type
    if t is None:
        return set()
    names: set[str] = set()
    for node in [t] if not isinstance(t, ast.Tuple) else list(t.elts):
        n = rightmost_name(node)
        if n:
            names.add(n)
    return names


class _EscapeAnalyzer:
    """Which exception type names can escape each function."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: dict[str, frozenset[str]] = {}

    def compute(self) -> dict[str, frozenset[str]]:
        """Escape sets to fixpoint: a changed set re-queues the callers
        (:func:`~repro.analysis.passes.solve`)."""
        self.summaries = {q: frozenset() for q in self.graph.functions}

        def visit(q: str) -> list[str]:
            esc = frozenset(self._escapes(self.graph.functions[q].node.body, q, caught_stack=()))
            if esc == self.summaries[q]:
                return []
            self.summaries[q] = esc
            return sorted(self.graph.callers_of(q))

        solve(self.graph.functions, visit)
        return self.summaries

    def _escapes(
        self, stmts: list[ast.stmt], caller: str, caught_stack: tuple[set[str], ...]
    ) -> set[str]:
        out: set[str] = set()
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs run when called, not inline
            out |= self._stmt_escapes(stmt, caller, caught_stack)
        return out

    def _stmt_escapes(
        self, stmt: ast.stmt, caller: str, caught_stack: tuple[set[str], ...]
    ) -> set[str]:
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                # bare re-raise: whatever the innermost handler caught
                return set(caught_stack[-1]) if caught_stack else set()
            name = rightmost_name(
                stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            )
            return {name} if name else set()
        if isinstance(stmt, ast.Try):
            body = self._escapes(stmt.body, caller, caught_stack)
            handler_escapes: set[str] = set()
            for handler in stmt.handlers:
                types = _handler_type_names(handler)
                caught = {e for e in body if _handler_catches(self.graph, types, e)}
                body -= caught
                handler_escapes |= self._escapes(
                    handler.body, caller, caught_stack + (types or caught or {"Exception"},)
                )
            out = body | handler_escapes
            out |= self._escapes(stmt.orelse, caller, caught_stack)
            out |= self._escapes(stmt.finalbody, caller, caught_stack)
            return out
        # compound statements: nested statement lists recurse (so inner
        # try/except filtering applies); only this statement's OWN
        # expressions contribute call-summary escapes directly
        out: set[str] = set()
        for _field, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                nested = [s for s in value if isinstance(s, ast.stmt)]
                if nested:
                    out |= self._escapes(nested, caller, caught_stack)
                for v in value:
                    if isinstance(v, ast.AST) and not isinstance(v, ast.stmt):
                        out |= self._calls_in(v, caller)
            elif isinstance(value, ast.AST):
                out |= self._calls_in(value, caller)
        return out

    def _calls_in(self, node: ast.AST, caller: str) -> set[str]:
        """Escape sets of resolved calls in one expression subtree
        (deferred bodies — lambdas, nested defs — excluded)."""
        out: set[str] = set()
        sites = self.graph.sites_by_node(caller)
        stack = [node]
        while stack:
            n = stack.pop()
            if isinstance(n, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(n, ast.Call):
                site = sites.get(id(n))
                if site is not None and site.callee in self.summaries:
                    out |= set(self.summaries[site.callee])
            stack.extend(ast.iter_child_nodes(n))
        return out


def compute_escaping_exceptions(graph: CallGraph) -> dict[str, frozenset[str]]:
    """Escaping exception-type summaries for every function in the graph."""
    return _EscapeAnalyzer(graph).compute()


class _ExceptionChecker:
    def __init__(self, graph: CallGraph, escapes: dict[str, frozenset[str]]) -> None:
        self.graph = graph
        self.escapes = escapes
        self.diags: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        wire_closure = self._wire_closure()
        for reg in delivery_registrations(self.graph):
            self._check_delivery(reg, wire_closure)
        for site in self.graph.calls:
            fn = self.graph.functions.get(site.caller)
            if fn and site.method in ("call_after", "call_at") and len(site.node.args) >= 2:
                self._check_scheduled(site.node.args[1], fn, site.node)
        for fn in self.graph.functions.values():
            path = fn.path.replace("\\", "/")
            if any(frag in path for frag in _DISPATCH_FILE_FRAGMENTS):
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.ExceptHandler):
                        self._check_swallow(node, fn, wire_closure)
        return self.diags

    def _wire_closure(self) -> frozenset[str]:
        """Wire errors plus every project subclass of one."""
        out = set(WIRE_ERROR_TYPES)
        for cls in self.graph.class_bases:
            if _exception_ancestors(self.graph, cls) & WIRE_ERROR_TYPES:
                out.add(cls)
        return frozenset(out)

    def _check_delivery(self, reg: Registration, wire_closure: frozenset[str]) -> None:
        target = reg.target
        leaking = sorted(set(self.escapes.get(target, frozenset())) & wire_closure)
        if leaking:
            self.diags.append(
                diag(
                    "EXC001",
                    f"delivery callback {target.rsplit('.', 1)[-1]}() can leak"
                    f" {', '.join(leaking)} across the dispatch boundary"
                    " (malformed input kills the event loop)",
                    target,
                    reg.registrar.path,
                    reg.node,
                )
            )

    def _check_scheduled(self, ref: ast.expr, fn: FunctionInfo, node: ast.AST) -> None:
        target = resolve_callback_ref(ref, fn, self.graph)
        if target is None:
            return
        leaking = sorted(self.escapes.get(target, frozenset()) - {"KeyboardInterrupt"})
        if leaking:
            self.diags.append(
                diag(
                    "EXC002",
                    f"scheduler callback {target.rsplit('.', 1)[-1]}() can raise"
                    f" {', '.join(leaking)}, aborting the event loop mid-run",
                    target,
                    fn.path,
                    node,
                )
            )

    def _check_swallow(
        self, handler: ast.ExceptHandler, fn: FunctionInfo, wire_closure: frozenset[str]
    ) -> None:
        if not all(
            isinstance(s, (ast.Pass, ast.Continue, ast.Break))
            or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
            for s in handler.body
        ):
            return
        types = _handler_type_names(handler)
        broad = not types or types & {"Exception", "BaseException"}
        wire = bool(types & wire_closure)
        if broad or wire:
            what = "every exception" if broad else ", ".join(sorted(types & wire_closure))
            self.diags.append(
                diag(
                    "EXC003",
                    f"handler silently swallows {what} on a dispatch path;"
                    " count it or emit a DiagnosticWarning",
                    fn.qualname,
                    fn.path,
                    handler,
                )
            )


# ======================================================================
# entry points
# ======================================================================
def dataflow_findings(graph: CallGraph) -> list[Diagnostic]:
    """Raw UNI/EXC findings over an already-built call graph."""
    diags: list[Diagnostic] = []

    return_units = compute_return_units(graph)
    unit_checker = _UnitChecker(graph, return_units)
    for fn in graph.functions.values():
        unit_checker.check_function(fn)
    diags.extend(unit_checker.diags)
    diags.extend(_GaugeChecker(graph).run())

    escapes = compute_escaping_exceptions(graph)
    diags.extend(_ExceptionChecker(graph, escapes).run())
    return diags


#: ``dataflow_diagnostics(graph, *, ignore=())`` / ``analyze_dataflow(paths,
#: *, ignore=())``: the findings above with suppressions applied
dataflow_diagnostics, analyze_dataflow = graph_entry_points(dataflow_findings)
