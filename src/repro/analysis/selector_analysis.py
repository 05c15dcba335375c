"""Static analysis of semantic selectors: SAT, vacuity, types.

The selector language (see :mod:`repro.core.selectors`) compares
attributes against literals, so satisfiability is decidable: the
analyzer rewrites the AST to negation normal form, expands to DNF, and
runs each conjunctive clause through the interval/set abstract domain of
:mod:`repro.analysis.domains`.  A clause is a product of independent
per-attribute regions (every atom constrains one attribute), so

* a clause whose region is *provably empty* is UNSAT — soundly;
* a non-empty clause yields a candidate witness profile which is
  **re-evaluated against the original selector** before SAT is claimed.

Anything outside the exact fragment (attribute-vs-attribute comparisons
between different attributes, DNF blowup past :data:`MAX_CLAUSES`) degrades
the verdict to UNKNOWN rather than guessing.

Vacuity (tautology) is satisfiability of the negation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Optional, Union

from ..core.attributes import MISSING
from ..core.selectors import (
    Selector,
    SelectorError,
    _And,
    _Attr,
    _BoolAttr,
    _BoolLiteral,
    _Compare,
    _Exists,
    _Literal,
    _Not,
    _Or,
)
from .diagnostics import Diagnostic, rule_severity
from .domains import NUM, STR, AttrDomain

__all__ = [
    "Verdict",
    "SelectorReport",
    "analyze_selector",
    "selector_diagnostics",
    "MAX_CLAUSES",
]

#: DNF clause budget before the analyzer gives up (UNKNOWN)
MAX_CLAUSES = 256

_COMPLEMENT = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class _TooComplex(Exception):
    pass


_Node = Any  # selector AST node (private classes of repro.core.selectors)
_Lit = tuple[_Node, bool]  # (atom, positive?)


# ----------------------------------------------------------------------
# NNF + DNF expansion
# ----------------------------------------------------------------------
def _dnf(node: _Node, neg: bool, limit: int) -> list[list[_Lit]]:
    if isinstance(node, _Not):
        return _dnf(node.operand, not neg, limit)
    conj = (isinstance(node, _And) and not neg) or (isinstance(node, _Or) and neg)
    disj = (isinstance(node, _Or) and not neg) or (isinstance(node, _And) and neg)
    if disj:
        out: list[list[_Lit]] = []
        for child in node.operands:
            out.extend(_dnf(child, neg, limit))
            if len(out) > limit:
                raise _TooComplex
        return out
    if conj:
        clauses: list[list[_Lit]] = [[]]
        for child in node.operands:
            child_clauses = _dnf(child, neg, limit)
            clauses = [a + b for a in clauses for b in child_clauses]
            if len(clauses) > limit:
                raise _TooComplex
        return clauses
    return [[(node, not neg)]]


# ----------------------------------------------------------------------
# clause solving over the abstract domain
# ----------------------------------------------------------------------
@dataclass
class _ClauseResult:
    state: Optional[dict[str, AttrDomain]]  # None => provably UNSAT
    imprecise: bool
    conflicts: list[str]


def _sort_of(v: Any) -> str:
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return NUM
    return STR


def _canon_num(v: Any) -> Any:
    """Numeric literals collapse cross-type (1 == 1.0) like values_equal."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    return v


def _pin_eq(dom: AttrDomain, v: Any) -> AttrDomain:
    """Region of ``values_equal(x, v)``: a single-sort pin."""
    sort = _sort_of(v)
    dom = dom.only(sort)
    if sort == "bool":
        return replace(dom, bools=dom.bools & {v})
    if sort == NUM:
        return replace(dom, num=dom.num.pin(frozenset({_canon_num(v)})))
    return replace(dom, strs=dom.strs.pin(frozenset({v})))


def _exclude_eq(dom: AttrDomain, v: Any) -> AttrDomain:
    """Remove ``v`` from its sort; every other region survives."""
    sort = _sort_of(v)
    if sort == "bool":
        return replace(dom, bools=dom.bools - {v})
    if sort == NUM:
        return replace(dom, num=dom.num.exclude(_canon_num(v)))
    return replace(dom, strs=dom.strs.exclude(v))


def _pin_or_missing(dom: AttrDomain, v: Any) -> AttrDomain:
    """Region of ``x missing or values_equal(x, v)`` (negated ``!=``)."""
    pinned = _pin_eq(dom, v)
    return replace(pinned, missing=dom.missing)


class _Unsat(Exception):
    """The clause just became constant-false."""


def _is_missing_only(dom: AttrDomain) -> bool:
    """The domain admits only absence (MISSING)."""
    return (
        dom.missing
        and not dom.bools
        and dom.num.provably_empty()
        and dom.strs.provably_empty()
        and dom.lst.provably_empty()
    )


def _is_relational(atom: _Node) -> bool:
    """Comparison between two *different* attributes."""
    return (
        isinstance(atom, _Compare)
        and isinstance(atom.left, _Attr)
        and isinstance(atom.right, _Attr)
        and atom.left.name != atom.right.name
    )


def _apply_compare(
    state: dict[str, AttrDomain],
    node: _Compare,
    pos: bool,
    demanded: dict[str, set[str]],
) -> bool:
    """Apply one comparison literal; returns True when imprecise."""
    left, right, op = node.left, node.right, node.op

    if op == "in":
        if isinstance(left, _Literal):  # constant membership test
            if bool(node.evaluate({})) != pos:
                raise _Unsat
            return False
        assert isinstance(left, _Attr)
        values = [lit.value for lit in right]
        dom = state.get(left.name, AttrDomain())
        if pos:
            dom = dom.without_missing()
            bools = frozenset(v for v in values if isinstance(v, bool))
            nums = frozenset(
                _canon_num(v) for v in values if _sort_of(v) == NUM
            )
            strs = frozenset(v for v in values if isinstance(v, str))
            dom = replace(
                dom,
                bools=dom.bools & bools,
                num=dom.num.pin(nums),
                strs=dom.strs.pin(strs),
                lst=dom.lst.kill(),
            )
            sorts = {_sort_of(v) for v in values}
            if len(sorts) == 1:  # a mixed list demands one of its sorts, not each
                demanded.setdefault(left.name, set()).update(sorts)
        else:
            for v in values:
                dom = _exclude_eq(dom, v)
        state[left.name] = dom
        if dom.is_empty():
            raise _Unsat
        return False

    # constant comparison (both sides literals)
    if not node.attributes():
        if bool(node.evaluate({})) != pos:
            raise _Unsat
        return False

    # attribute vs attribute
    if isinstance(left, _Attr) and isinstance(right, _Attr):
        if left.name != right.name:
            # every binary comparison is false when either side is
            # MISSING, so a side already constrained to absence decides
            # the atom exactly; otherwise the constraint is relational
            # and outside the abstract domain (imprecise)
            ldom = state.get(left.name, AttrDomain())
            rdom = state.get(right.name, AttrDomain())
            if _is_missing_only(ldom) or _is_missing_only(rdom):
                if pos:
                    raise _Unsat
                return False
            return True  # imprecise: relational constraint between attrs
        name = left.name
        dom = state.get(name, AttrDomain())
        if op == "==":  # x == x  <=>  exists(x)
            dom = dom.without_missing() if pos else dom.only_missing()
        elif op in ("!=", "<", ">", "contains"):  # constant false
            if pos:
                raise _Unsat
        elif op in ("<=", ">="):  # true iff present and num-or-str
            if pos:
                dom = replace(
                    dom.without_missing(), bools=frozenset(), lst=dom.lst.kill()
                )
            else:
                dom = replace(dom, num=dom.num.kill(), strs=dom.strs.kill())
        state[name] = dom
        if dom.is_empty():
            raise _Unsat
        return False

    # normalise to  attr <op> literal
    if isinstance(left, _Literal):
        if op == "contains":  # scalar literal is never a list
            if pos:
                raise _Unsat
            return False
        left, right = right, left
        if op not in ("==", "!="):
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    assert isinstance(left, _Attr) and isinstance(right, _Literal)
    name, v = left.name, right.value
    dom = state.get(name, AttrDomain())

    if op == "==":
        dom = _pin_eq(dom, v) if pos else _exclude_eq(dom, v)
        if pos:
            demanded.setdefault(name, set()).add(_sort_of(v))
    elif op == "!=":
        if pos:
            dom = _exclude_eq(dom.without_missing(), v)
        else:
            dom = _pin_or_missing(dom, v)
    elif op == "contains":
        if isinstance(v, (list, tuple)):  # lists hold scalars only
            if pos:
                raise _Unsat
            return False
        cv = _canon_num(v)
        if pos:
            dom = replace(dom.only("list"), lst=dom.lst.require(cv))
            demanded.setdefault(name, set()).add("list")
        else:
            dom = replace(dom, lst=dom.lst.forbid(cv))
    else:  # ordered comparison
        sort = _sort_of(v)
        if sort == "bool":  # ordered vs bool literal is constant false
            if pos:
                raise _Unsat
            return False
        band_name = "num" if sort == NUM else "strs"
        bound = _canon_num(v)
        if pos:
            dom = dom.only(sort)
            band = getattr(dom, band_name).restrict(op, bound)
            dom = replace(dom, **{band_name: band})
            demanded.setdefault(name, set()).add(sort)
        else:
            band = getattr(dom, band_name).restrict(_COMPLEMENT[op], bound)
            dom = replace(dom, **{band_name: band})
    state[name] = dom
    if dom.is_empty():
        raise _Unsat
    return False


def _solve_clause(lits: list[_Lit]) -> _ClauseResult:
    state: dict[str, AttrDomain] = {}
    demanded: dict[str, set[str]] = {}
    imprecise = False
    # relational (attr-vs-attr) atoms go last: their only exact handling
    # needs the single-attribute constraints already folded into state
    lits = sorted(lits, key=lambda la: _is_relational(la[0]))
    try:
        for atom, pos in lits:
            if isinstance(atom, _BoolLiteral):
                if atom.value != pos:
                    raise _Unsat
            elif isinstance(atom, _Exists):
                dom = state.get(atom.name, AttrDomain())
                dom = dom.without_missing() if pos else dom.only_missing()
                state[atom.name] = dom
                if dom.is_empty():
                    raise _Unsat
            elif isinstance(atom, _BoolAttr):
                dom = state.get(atom.name, AttrDomain())
                if pos:
                    dom = replace(dom.only("bool"), bools=dom.bools & {True})
                    demanded.setdefault(atom.name, set()).add("bool")
                else:
                    dom = replace(dom, bools=dom.bools - {True})
                state[atom.name] = dom
                if dom.is_empty():
                    raise _Unsat
            elif isinstance(atom, _Compare):
                imprecise |= _apply_compare(state, atom, pos, demanded)
            else:  # pragma: no cover - grammar produces no other atoms
                imprecise = True
    except _Unsat:
        conflicts = [
            f"attribute {name!r} required as " + " and ".join(sorted(sorts))
            for name, sorts in demanded.items()
            if len(sorts) > 1
        ]
        return _ClauseResult(None, imprecise, conflicts)
    conflicts = [
        f"attribute {name!r} required as " + " and ".join(sorted(sorts))
        for name, sorts in demanded.items()
        if len(sorts) > 1
    ]
    return _ClauseResult(state, imprecise, conflicts)


def _clause_witness(state: dict[str, AttrDomain]) -> Optional[dict[str, Any]]:
    env: dict[str, Any] = {}
    for name, dom in state.items():
        v = dom.sample()
        if v is None:
            return None
        if v is MISSING:
            continue
        env[name] = v
    return env


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------
def _verdict_of_ast(ast: _Node) -> tuple[Verdict, Optional[dict[str, Any]], list[str], bool]:
    """(verdict, witness, type-conflict notes, truncated)."""
    try:
        clauses = _dnf(ast, False, MAX_CLAUSES)
    except _TooComplex:
        return Verdict.UNKNOWN, None, [], True
    unknown = False
    conflicts: list[str] = []
    for clause in clauses:
        res = _solve_clause(clause)
        for c in res.conflicts:
            if c not in conflicts:
                conflicts.append(c)
        if res.state is None:
            continue
        env = _clause_witness(res.state)
        if env is not None and bool(ast.evaluate(env)):
            return Verdict.SAT, env, conflicts, False
        unknown = True
    return (Verdict.UNKNOWN if unknown else Verdict.UNSAT), None, conflicts, False


@dataclass(frozen=True)
class SelectorReport:
    """Everything the analyzer can say about one selector."""

    selector: Selector
    verdict: Verdict
    witness: Optional[dict[str, Any]]
    tautology: Optional[bool]  # None = could not decide
    type_conflicts: tuple[str, ...]
    truncated: bool


def analyze_selector(selector: Union[Selector, str]) -> SelectorReport:
    """Full static report for one selector (raises
    :class:`~repro.core.selectors.SelectorError` on parse failure)."""
    sel = selector if isinstance(selector, Selector) else Selector(selector)
    verdict, witness, conflicts, truncated = _verdict_of_ast(sel._ast)
    taut: Optional[bool] = None
    if not truncated:
        neg_verdict, _, _, neg_trunc = _verdict_of_ast(_Not(sel._ast))
        truncated = truncated or neg_trunc
        if neg_verdict is Verdict.UNSAT:
            taut = True
        elif neg_verdict is Verdict.SAT:
            taut = False
    return SelectorReport(
        selector=sel,
        verdict=verdict,
        witness=witness,
        tautology=taut,
        type_conflicts=tuple(conflicts),
        truncated=truncated,
    )


# ----------------------------------------------------------------------
# diagnostics surface
# ----------------------------------------------------------------------
def selector_diagnostics(
    selector: Union[Selector, str], *, subject: str = ""
) -> list[Diagnostic]:
    """Diagnostics (SEL001/002/003/004/006) for one selector."""
    text = selector.text if isinstance(selector, Selector) else selector
    label = subject or text
    try:
        report = analyze_selector(selector)
    except SelectorError as err:
        return [
            Diagnostic("SEL006", rule_severity("SEL006"), str(err), subject=label)
        ]
    out: list[Diagnostic] = []
    if report.verdict is Verdict.UNSAT:
        out.append(
            Diagnostic(
                "SEL001",
                rule_severity("SEL001"),
                f"selector {text!r} is unsatisfiable: no profile can ever match",
                subject=label,
            )
        )
    elif report.tautology:
        out.append(
            Diagnostic(
                "SEL002",
                rule_severity("SEL002"),
                f"selector {text!r} is a tautology: it matches every profile",
                subject=label,
            )
        )
    for note in report.type_conflicts:
        out.append(
            Diagnostic(
                "SEL003",
                rule_severity("SEL003"),
                f"type conflict in {text!r}: {note}",
                subject=label,
            )
        )
    if report.verdict is Verdict.UNKNOWN or report.truncated:
        out.append(
            Diagnostic(
                "SEL004",
                rule_severity("SEL004"),
                f"selector {text!r} exceeds the exact analysis fragment; verdict unknown",
                subject=label,
            )
        )
    return out
