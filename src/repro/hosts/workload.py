"""Workload generators driving the simulated hosts.

The paper's wired experiments observe the image viewer "with dynamically
changing system conditions": CPU load and page faults swept 30→100.
Generators produce a deterministic value per tick; compose them with
:class:`Add` / :class:`Clamp` to build richer scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Workload",
    "Constant",
    "Ramp",
    "Square",
    "RandomWalk",
    "Trace",
    "Add",
    "Clamp",
]


class Workload:
    """Base: ``value(tick)`` maps a non-negative tick to a level."""

    def value(self, tick: int) -> float:
        raise NotImplementedError

    def series(self, ticks: int) -> np.ndarray:
        """The first ``ticks`` values as an array."""
        return np.array([self.value(t) for t in range(ticks)], dtype=float)


@dataclass
class Constant(Workload):
    """A flat level."""

    level: float

    def value(self, tick: int) -> float:
        return self.level


@dataclass
class Ramp(Workload):
    """Linear sweep ``start → stop`` over ``ticks`` steps, then hold.

    The FIG6/FIG7 sweeps do not use it: they replay their levels as a
    :class:`Trace` and step the host with ``advance_to_tick``.
    """

    start: float
    stop: float
    ticks: int

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError("ticks must be >= 1")

    def value(self, tick: int) -> float:
        if tick >= self.ticks - 1 or self.ticks == 1:
            return self.stop
        frac = tick / (self.ticks - 1)
        return self.start + frac * (self.stop - self.start)


@dataclass
class Square(Workload):
    """Alternating low/high plateaus of ``period`` ticks each."""

    low: float
    high: float
    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")

    def value(self, tick: int) -> float:
        return self.high if (tick // self.period) % 2 else self.low


class RandomWalk(Workload):
    """Mean-reverting random walk (deterministic under its seed)."""

    def __init__(
        self,
        start: float = 50.0,
        step: float = 5.0,
        lo: float = 0.0,
        hi: float = 100.0,
        seed: int = 0,
    ) -> None:
        if lo >= hi:
            raise ValueError("require lo < hi")
        self.start = start
        self.step = step
        self.lo = lo
        self.hi = hi
        self._seed = seed
        self._cache: list[float] = [float(np.clip(start, lo, hi))]
        self._rng = np.random.default_rng(seed)

    def value(self, tick: int) -> float:
        while len(self._cache) <= tick:
            prev = self._cache[-1]
            drift = 0.05 * ((self.lo + self.hi) / 2 - prev)
            nxt = prev + drift + float(self._rng.normal(0.0, self.step))
            self._cache.append(float(np.clip(nxt, self.lo, self.hi)))
        return self._cache[tick]


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


@dataclass
class Add(Workload):
    """Pointwise sum of two workloads."""

    a: Workload
    b: Workload

    def value(self, tick: int) -> float:
        return self.a.value(tick) + self.b.value(tick)


@dataclass
class Clamp(Workload):
    """Clamp another workload into ``[lo, hi]``."""

    inner: Workload
    lo: float
    hi: float

    def value(self, tick: int) -> float:
        return float(np.clip(self.inner.value(tick), self.lo, self.hi))
