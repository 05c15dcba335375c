"""The policy database: rules mapping observed state to adaptations.

"The inference engine serves as a policy database and encodes policies
for information transformations" (paper Sec. 5.2).  Three rule shapes
cover the paper's experiments:

* :class:`StepPolicy` — piecewise-constant map from a monotone system
  parameter to a decision value.  FIG6's page-fault rule ("packets vary
  from 1 to 16 in powers of 2 corresponding to page faults varying from
  30 to 100") and FIG7's CPU-load rule (16 down to 0 packets over
  30–100 % load) are instances, provided as defaults.
* :class:`SirTierPolicy` — SIR thresholds selecting the modality tier a
  base station forwards for a wireless client: full image / text+sketch /
  text only / nothing (paper Sec. 6.3, e.g. "SIR threshold for image data
  is at 4 db").
* :class:`PolicyDatabase` — the named collection the inference engine
  consults; multiple applicable packet policies combine by *most
  constrained wins*.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Optional, Sequence

from ..media.progressive import FULL_BUDGET

if TYPE_CHECKING:
    from ..analysis.diagnostics import Diagnostic
    from .contracts import QoSContract

__all__ = [
    "StepPolicy",
    "ModalityTier",
    "SirTierPolicy",
    "PolicyDatabase",
    "PolicyError",
    "default_page_fault_policy",
    "default_cpu_load_policy",
    "default_sir_tier_policy",
    "default_policy_database",
]


#: The packet ceiling while the management plane is dark (see
#: ``degraded=`` on :meth:`PolicyDatabase.decide_packets`).
CONSERVATIVE_PACKETS = 1


class PolicyError(ValueError):
    """Raised on malformed policy definitions."""


@dataclass(frozen=True)
class StepPolicy:
    """Piecewise-constant: value of the first breakpoint the input is
    *below*, else the floor value.

    ``breakpoints`` is a sequence of ``(upper_bound, value)`` with
    strictly increasing bounds; ``floor`` applies at/after the last bound.

    >>> p = StepPolicy("pf", "packets", [(44, 16), (58, 8)], floor=1)
    >>> p.decide(30), p.decide(50), p.decide(90)
    (16.0, 8.0, 1.0)
    """

    parameter: str
    output: str
    breakpoints: tuple[tuple[float, float], ...]
    floor: float

    def __init__(
        self,
        parameter: str,
        output: str,
        breakpoints: Sequence[tuple[float, float]],
        floor: float,
    ) -> None:
        bps = tuple((float(b), float(v)) for b, v in breakpoints)
        if not bps:
            raise PolicyError("need at least one breakpoint")
        bounds = [b for b, _ in bps]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise PolicyError("breakpoint bounds must be strictly increasing")
        object.__setattr__(self, "parameter", parameter)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "floor", float(floor))

    def decide(self, observed: float) -> float:
        """Map one observation to the policy's output value."""
        bounds = [b for b, _ in self.breakpoints]
        idx = bisect.bisect_right(bounds, observed)
        if idx < len(self.breakpoints):
            return self.breakpoints[idx][1]
        return self.floor


class ModalityTier(IntEnum):
    """What a wireless client's channel supports, most→least capable."""

    FULL_IMAGE = 3      # text + sketch + all image packets
    TEXT_AND_SKETCH = 2  # text description + base-image sketch
    TEXT_ONLY = 1        # text description only
    NOTHING = 0          # channel unusable


@dataclass(frozen=True)
class SirTierPolicy:
    """SIR(dB) thresholds → modality tier.

    Defaults: ≥4 dB full image (the paper's example threshold), ≥0 dB
    text+sketch, ≥−6 dB text only, below that nothing.
    """

    image_db: float = 4.0
    sketch_db: float = 0.0
    text_db: float = -6.0

    def __post_init__(self) -> None:
        if not (self.text_db <= self.sketch_db <= self.image_db):
            raise PolicyError("tier thresholds must be ordered text <= sketch <= image")

    def tier(self, sir_db: float) -> ModalityTier:
        """Select the richest tier the SIR supports."""
        if sir_db >= self.image_db:
            return ModalityTier.FULL_IMAGE
        if sir_db >= self.sketch_db:
            return ModalityTier.TEXT_AND_SKETCH
        if sir_db >= self.text_db:
            return ModalityTier.TEXT_ONLY
        return ModalityTier.NOTHING


def default_page_fault_policy() -> StepPolicy:
    """FIG6 rule: page faults 30→100 map to 16→1 packets (powers of 2).

    Bands split the 30–100 range evenly into five steps.
    """
    return StepPolicy(
        parameter="page_faults",
        output="packets",
        breakpoints=[(44, 16), (58, 8), (72, 4), (86, 2)],
        floor=1,
    )


def default_cpu_load_policy() -> StepPolicy:
    """FIG7 rule: CPU load 30→100 % maps to 16→0 packets.

    "The CPU load variation from 30 to 100% results in a drop in the
    number of image packets accepted from 16 to 0."
    """
    return StepPolicy(
        parameter="cpu_load",
        output="packets",
        breakpoints=[(44, 16), (58, 8), (72, 4), (86, 2), (97, 1)],
        floor=0,
    )


def default_sir_tier_policy() -> SirTierPolicy:
    """The paper's wireless tiers with the 4 dB image threshold."""
    return SirTierPolicy()


def default_bandwidth_policy() -> StepPolicy:
    """Network-bandwidth rule: starved links carry fewer image packets.

    Thresholds in bits/second of available path bandwidth (matching the
    ``_bps`` suffix of the observed parameter): below ~1 Mb/s a single
    packet; full budget above 10 Mb/s.  Unlike the page-fault/CPU rules
    the output *rises* with the input — :class:`StepPolicy` is
    direction-agnostic.
    """
    return StepPolicy(
        parameter="bandwidth_bps",
        output="packets",
        breakpoints=[(1_024_000, 1), (2_560_000, 2), (5_120_000, 4), (10_000_000, 8)],
        floor=FULL_BUDGET,
    )


class PolicyDatabase:
    """Named policies + combination semantics.

    Packet decisions from all applicable step policies combine by
    minimum — the most constrained subsystem (CPU, memory, network)
    governs, which is what the paper's wired experiments show.
    :meth:`lint` reports static diagnostics for the registered policies.
    """

    def __init__(self) -> None:
        self._step: dict[str, StepPolicy] = {}
        self._sir: SirTierPolicy = default_sir_tier_policy()

    def add_step(self, name: str, policy: StepPolicy) -> None:
        """Register/replace a step policy under ``name``."""
        self._step[name] = policy

    def remove_step(self, name: str) -> None:
        self._step.pop(name, None)

    def set_sir_policy(self, policy: SirTierPolicy) -> None:
        self._sir = policy

    def lint(self, contracts: Sequence["QoSContract"] = ()) -> "list[Diagnostic]":
        """Static diagnostics for the current database (see
        :func:`repro.analysis.lint_policy_database`)."""
        from ..analysis import lint_policy_database

        return lint_policy_database(self, contracts=contracts)

    @property
    def sir_policy(self) -> SirTierPolicy:
        return self._sir

    @property
    def step_policies(self) -> dict[str, StepPolicy]:
        return dict(self._step)

    def decide_packets(
        self, observed: dict[str, float], degraded: bool = False
    ) -> Optional[int]:
        """Most-constrained packet budget from the applicable policies.

        Returns None when no policy's input parameter was observed —
        unless ``degraded`` is set (the system-state plane has gone dark
        beyond its stale grace), in which case the budget is capped at
        :data:`CONSERVATIVE_PACKETS`: unobservable hosts are assumed
        loaded, not idle.
        """
        decisions = [
            p.decide(observed[p.parameter])
            for p in self._step.values()
            if p.output == "packets" and p.parameter in observed
        ]
        if not decisions:
            return CONSERVATIVE_PACKETS if degraded else None
        budget = int(min(decisions))
        if degraded:
            budget = min(budget, CONSERVATIVE_PACKETS)
        return budget

    def decide_tier(self, sir_db: float) -> ModalityTier:
        """Wireless tier for one client's SIR (the base station's gate)."""
        return self._sir.tier(sir_db)


def default_policy_database() -> PolicyDatabase:
    """Policies as configured for the paper's experiments.

    The bandwidth rule participates too: it only constrains when a
    ``bandwidth_bps`` observation is present (the
    :class:`~repro.core.netstate.NetworkStateInterface` supplies it).
    """
    db = PolicyDatabase()
    db.add_step("page-faults", default_page_fault_policy())
    db.add_step("cpu-load", default_cpu_load_policy())
    db.add_step("bandwidth", default_bandwidth_policy())
    return db
