"""Lint for the policy database.

These checks run over *live config objects* (not source text), so the
same pass backs the ``repro.analysis`` CLI and :func:`lint_policy_database`.

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
"""

from __future__ import annotations

from ..core.policies import PolicyDatabase, SirTierPolicy, StepPolicy
from ..media.progressive import PACKET_COUNTS
from .diagnostics import Diagnostic, rule_severity

__all__ = [
    "PACKET_STEPS",
    "lint_step_policy",
    "lint_sir_policy",
    "lint_policy_database",
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
def lint_sir_policy(policy: SirTierPolicy) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if policy.sketch_db == policy.image_db:
        out.append(
            _diag(
                "POL004",
                f"sketch threshold equals image threshold ({policy.image_db} dB):"
                " the TEXT_AND_SKETCH tier is unreachable",
                "sir",
            )
        )
    if policy.text_db == policy.sketch_db:
        out.append(
            _diag(
                "POL004",
                f"text threshold equals sketch threshold ({policy.sketch_db} dB):"
                " the TEXT_ONLY tier is unreachable",
                "sir",
            )
        )
    return out


# ----------------------------------------------------------------------
# whole database
# ----------------------------------------------------------------------
def lint_policy_database(policies: PolicyDatabase) -> list[Diagnostic]:
    """All policy diagnostics for one database."""
    out: list[Diagnostic] = []
    for name, policy in sorted(policies.step_policies.items()):
        out.extend(lint_step_policy(policy, name))
    out.extend(lint_sir_policy(policies.sir_policy))
    return out
