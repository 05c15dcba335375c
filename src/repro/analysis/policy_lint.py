"""Lint for the policy database, QoS contracts, and profile transforms.

These checks run over *live config objects* (not source text), so the
same pass backs the ``repro.analysis`` CLI, :meth:`PolicyDatabase.lint
<repro.core.policies.PolicyDatabase.lint>` and :func:`lint_profile`.

Rules
-----
* ``POL001`` — a :class:`StepPolicy`'s value sequence (breakpoints then
  floor) is not monotone: adaptation would oscillate as the parameter
  degrades monotonically.
* ``POL002`` — adjacent bands carry the same value: the threshold
  between them can never change the decision (unreachable threshold).
* ``POL003`` — a packet-output value outside the paper's
  ``{0, 1, 2, 4, 8, 16}`` step set: the inference engine would snap it
  anyway, silently changing the configured behaviour.
* ``POL004`` — SIR tier thresholds that collapse a tier (equal adjacent
  thresholds leave a modality unreachable — an overlap/gap in tiers).
* ``POL005`` — a QoS contract whose ``packets`` range excludes every
  value any policy (or the full budget) can produce: permanently
  violated.
* ``POL006`` — a contract constraint on a parameter that no policy
  outputs and no policy observes (likely a typo).
* ``PRO001``–``PRO003`` — transform-rule cycles, rules that can never
  help given the interest selector, and no-op rules.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.contracts import QoSContract
from ..core.policies import PolicyDatabase, SirTierPolicy, StepPolicy
from ..core.profiles import ClientProfile, TransformRule
from ..core.selectors import Selector, _And, _Attr, _Compare, _Literal
from ..media.progressive import FULL_BUDGET, PACKET_COUNTS
from .diagnostics import Diagnostic, rule_severity
from .selector_analysis import MAX_CLAUSES, Verdict, _verdict_of_ast

__all__ = [
    "PACKET_STEPS",
    "lint_step_policy",
    "lint_sir_policy",
    "lint_contract_against",
    "lint_policy_database",
    "lint_transforms",
    "lint_profile",
]

#: the paper's admissible packet budgets (powers of two, plus "gated off")
PACKET_STEPS = frozenset((0, *PACKET_COUNTS))


def _diag(code: str, message: str, subject: str) -> Diagnostic:
    return Diagnostic(code, rule_severity(code), message, subject=subject)


# ----------------------------------------------------------------------
# step policies
# ----------------------------------------------------------------------
def lint_step_policy(policy: StepPolicy, name: str = "") -> list[Diagnostic]:
    subject = name or f"StepPolicy({policy.parameter}->{policy.output})"
    out: list[Diagnostic] = []
    values = [v for _, v in policy.breakpoints] + [policy.floor]

    non_increasing = all(a >= b for a, b in zip(values, values[1:]))
    non_decreasing = all(a <= b for a, b in zip(values, values[1:]))
    if not (non_increasing or non_decreasing):
        out.append(
            _diag(
                "POL001",
                f"values {values} are not monotone over {policy.parameter!r}:"
                " the decision would oscillate as the parameter degrades",
                subject,
            )
        )

    bounds = [b for b, _ in policy.breakpoints]
    for i, (a, b) in enumerate(zip(values, values[1:])):
        if a == b:
            threshold = bounds[i] if i < len(bounds) else bounds[-1]
            out.append(
                _diag(
                    "POL002",
                    f"threshold {threshold} is unreachable: the bands on both"
                    f" sides decide the same value {a}",
                    subject,
                )
            )

    if policy.output == "packets":
        bad = sorted({v for v in values if v not in PACKET_STEPS})
        if bad:
            out.append(
                _diag(
                    "POL003",
                    f"packet decisions {bad} are outside the paper's"
                    " {0, 1, 2, 4, 8, 16} step set; the inference engine"
                    " would silently snap them",
                    subject,
                )
            )
    return out


# ----------------------------------------------------------------------
# SIR tiers
# ----------------------------------------------------------------------
def lint_sir_policy(policy: SirTierPolicy, name: str = "sir") -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if policy.sketch_db == policy.image_db:
        out.append(
            _diag(
                "POL004",
                f"sketch threshold equals image threshold ({policy.image_db} dB):"
                " the TEXT_AND_SKETCH tier is unreachable",
                name,
            )
        )
    if policy.text_db == policy.sketch_db:
        out.append(
            _diag(
                "POL004",
                f"text threshold equals sketch threshold ({policy.sketch_db} dB):"
                " the TEXT_ONLY tier is unreachable",
                name,
            )
        )
    return out


# ----------------------------------------------------------------------
# contracts × policies
# ----------------------------------------------------------------------
def lint_contract_against(contract: QoSContract, policies: PolicyDatabase) -> list[Diagnostic]:
    """Cross-check one contract against the policy database."""
    out: list[Diagnostic] = []
    step = policies.step_policies
    outputs: dict[str, set[float]] = {}
    observed_params: set[str] = set()
    for p in step.values():
        observed_params.add(p.parameter)
        vals = outputs.setdefault(p.output, set())
        vals.update(v for _, v in p.breakpoints)
        vals.add(p.floor)
    # with no applicable policy the engine grants the full budget
    outputs.setdefault("packets", set()).add(float(FULL_BUDGET))

    for param in contract.parameters:
        c = contract.constraint(param)
        assert c is not None
        if param in outputs:
            achievable = sorted(outputs[param])
            if not any(c.satisfied(v) for v in achievable):
                lo = c.minimum if c.minimum is not None else "-inf"
                hi = c.maximum if c.maximum is not None else "inf"
                out.append(
                    _diag(
                        "POL005",
                        f"contract range [{lo}, {hi}] on {param!r} excludes every"
                        f" decision the policies can produce ({achievable}):"
                        " the contract is permanently violated",
                        contract.name,
                    )
                )
        elif param not in observed_params:
            out.append(
                _diag(
                    "POL006",
                    f"constraint on {param!r}: no policy outputs it and no"
                    " policy observes it (possible typo)",
                    contract.name,
                )
            )
    return out


# ----------------------------------------------------------------------
# whole database
# ----------------------------------------------------------------------
def lint_policy_database(
    policies: PolicyDatabase,
    *,
    contracts: Iterable[QoSContract] = (),
) -> list[Diagnostic]:
    """All policy/contract diagnostics for one database."""
    out: list[Diagnostic] = []
    for name, policy in sorted(policies.step_policies.items()):
        out.extend(lint_step_policy(policy, name))
    out.extend(lint_sir_policy(policies.sir_policy))
    for contract in contracts:
        out.extend(lint_contract_against(contract, policies))
    return out


# ----------------------------------------------------------------------
# profile transforms
# ----------------------------------------------------------------------
def _interest_admits(interest: Selector, attribute: str, value: object) -> Optional[bool]:
    """Can the interest accept headers carrying ``attribute == value``?"""
    if isinstance(value, (list, tuple)):
        return None  # equality atoms over lists are outside the fragment
    probe = _And((interest._ast, _Compare("==", _Attr(attribute), _Literal(value))))
    verdict, _, _, _ = _verdict_of_ast(probe, MAX_CLAUSES)
    if verdict is Verdict.SAT:
        return True
    if verdict is Verdict.UNSAT:
        return False
    return None


def lint_transforms(
    interest: Selector, transforms: Iterable[TransformRule], *, subject: str = ""
) -> list[Diagnostic]:
    """PRO001/002/003 over one client's transform rules."""
    rules = list(transforms)
    out: list[Diagnostic] = []

    for rule in rules:
        if rule.attribute and rule.from_value == rule.to_value:
            out.append(
                _diag(
                    "PRO003",
                    f"rule {rule} rewrites {rule.attribute!r} to its own value"
                    " (no-op)",
                    subject or str(rule),
                )
            )

    # cycles: edges (attr, from) -> (attr, to)
    edges: dict[tuple[str, object], set[tuple[str, object]]] = {}
    for rule in rules:
        src = (rule.attribute, rule.from_value)
        dst = (rule.attribute, rule.to_value)
        if src != dst:
            edges.setdefault(src, set()).add(dst)
    state: dict[tuple[str, object], int] = {}  # 1 = on stack, 2 = done

    def dfs(node: tuple[str, object], path: list[tuple[str, object]]) -> None:
        state[node] = 1
        path.append(node)
        for nxt in sorted(edges.get(node, ()), key=repr):
            if state.get(nxt) == 1:
                cycle = path[path.index(nxt):] + [nxt]
                desc = " -> ".join(f"{a}={v!r}" for a, v in cycle)
                note = _diag(
                    "PRO001",
                    f"transform rules form a cycle: {desc}; chained transforms"
                    " can churn without converging",
                    subject or desc,
                )
                if all(d.message != note.message for d in out):
                    out.append(note)
            elif state.get(nxt) is None:
                dfs(nxt, path)
        path.pop()
        state[node] = 2

    for node in sorted(edges, key=repr):
        if state.get(node) is None:
            dfs(node, [])

    # dead rules: output neither acceptable to the interest nor consumed
    # by another rule on the same attribute
    consumed = {(r.attribute, r.from_value) for r in rules}
    for rule in rules:
        if rule.from_value == rule.to_value:
            continue  # already PRO003
        admits = _interest_admits(interest, rule.attribute, rule.to_value)
        feeds_chain = (rule.attribute, rule.to_value) in consumed
        if admits is False and not feeds_chain:
            out.append(
                _diag(
                    "PRO002",
                    f"rule {rule} can never help: the interest selector rejects"
                    f" {rule.attribute} == {rule.to_value!r} and no other rule"
                    " consumes it",
                    subject or str(rule),
                )
            )
    return out


def lint_profile(profile: ClientProfile) -> list[Diagnostic]:
    """Interest-selector analysis + transform lint for one profile."""
    from ..core.selectors import TRUE_SELECTOR
    from .selector_analysis import selector_diagnostics

    subject = f"profile {profile.client_id!r}"
    out = selector_diagnostics(profile.interest, subject=subject)
    if profile.interest == TRUE_SELECTOR:
        # accept-everything is the documented default, not vacuity
        out = [d for d in out if d.code != "SEL002"]
    out.extend(lint_transforms(profile.interest, profile.transforms, subject=subject))
    return out
