"""QoS contracts: user constraints the inference engine must honour.

"Users can specify individual system and application parameters that will
make up the local system state, as well as the constraints subject on
these parameters.  These user policies define a QoS 'contract' that needs
to be satisfied by the inference engine" (paper Sec. 5.2).

A contract is a set of :class:`Constraint` ranges over named parameters
(decision outputs like ``packets`` / ``bpp``, or observed inputs like
``latency_ms``).  The inference engine clamps decisions into the
contract where possible and reports a :class:`ContractViolation` when the
system state makes the contract unsatisfiable (the application may then
renegotiate — e.g. drop to text mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Constraint", "QoSContract", "ContractViolation", "ContractError"]


class ContractError(ValueError):
    """Raised for malformed constraints."""


@dataclass(frozen=True)
class Constraint:
    """An inclusive range requirement on one parameter."""

    parameter: str
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if self.minimum is None and self.maximum is None:
            raise ContractError(f"constraint on {self.parameter!r} has no bounds")
        if (
            self.minimum is not None
            and self.maximum is not None
            and self.minimum > self.maximum
        ):
            raise ContractError(
                f"constraint on {self.parameter!r}: min {self.minimum} > max {self.maximum}"
            )

    def satisfied(self, value: float) -> bool:
        """Whether ``value`` lies in the range."""
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True

    def clamp(self, value: float) -> float:
        """Nearest in-range value."""
        if self.minimum is not None:
            value = max(value, self.minimum)
        if self.maximum is not None:
            value = min(value, self.maximum)
        return value


@dataclass(frozen=True)
class ContractViolation:
    """One unsatisfied constraint at decision time."""

    constraint: Constraint
    observed: float

    def __str__(self) -> str:
        c = self.constraint
        rng = f"[{c.minimum if c.minimum is not None else '-inf'}, " \
              f"{c.maximum if c.maximum is not None else 'inf'}]"
        return f"{c.parameter}={self.observed} outside {rng}"


class QoSContract:
    """A named bundle of constraints.

    >>> c = QoSContract("viewer", [Constraint("packets", minimum=1)])
    >>> c.violations({"packets": 0})[0].observed
    0
    """

    def __init__(self, name: str, constraints: list[Constraint] | None = None) -> None:
        self.name = name
        self._by_param: dict[str, Constraint] = {}
        for c in constraints or []:
            self.add(c)

    def add(self, constraint: Constraint) -> None:
        """Add/replace the constraint for one parameter."""
        self._by_param[constraint.parameter] = constraint

    def violations(self, values: dict[str, float]) -> list[ContractViolation]:
        """All constraints unsatisfied by ``values`` (missing ones skip)."""
        out = []
        for name, c in sorted(self._by_param.items()):
            if name in values and not c.satisfied(values[name]):
                out.append(ContractViolation(c, values[name]))
        return out

    def clamp(self, parameter: str, value: float) -> float:
        """Pull a decision parameter into the contracted range if bounded."""
        c = self._by_param.get(parameter)
        return c.clamp(value) if c is not None else value

    def __repr__(self) -> str:
        return f"QoSContract({self.name!r}, {sorted(self._by_param)})"
