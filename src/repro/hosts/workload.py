"""Workload generators driving the simulated hosts.

The paper's wired experiments observe the image viewer "with dynamically
changing system conditions": CPU load and page faults swept 30→100.
Each workload yields a deterministic level per tick: a :class:`Constant`
level, or a :class:`Trace` replaying the figures' sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Workload",
    "Constant",
    "Trace",
]


class Workload:
    """Base: ``value(tick)`` maps a non-negative tick to a level."""

    def value(self, tick: int) -> float:
        raise NotImplementedError


@dataclass
class Constant(Workload):
    """A flat level."""

    level: float

    def value(self, tick: int) -> float:
        return self.level


@dataclass
class Trace(Workload):
    """Playback of an explicit series; holds the last value after the end."""

    values: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("trace must be non-empty")

    def value(self, tick: int) -> float:
        idx = min(tick, len(self.values) - 1)
        return float(self.values[idx])
