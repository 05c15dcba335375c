"""Mobility traces: client distance from the base station over time.

FIG8's experiment moves client A from 100 m in to 50 m (x-axis points
0–3) and back out (points 3–5) while client B holds position.  A
:class:`MobilityTrace` yields the distance at each experiment step;
:func:`approach_and_retreat` is that sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "MobilityTrace",
    "PiecewiseLinearTrace",
    "approach_and_retreat",
]


class MobilityTrace:
    """Base: a finite sequence of distances (metres) from the BS."""

    def distances(self) -> np.ndarray:
        """The full trace as an array of shape ``(steps,)``."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[float]:
        return iter(self.distances().tolist())


@dataclass
class PiecewiseLinearTrace(MobilityTrace):
    """Linear interpolation through waypoints ``(step_index, distance)``.

    >>> t = PiecewiseLinearTrace([(0, 100.0), (2, 50.0), (4, 100.0)])
    >>> t.distances().tolist()
    [100.0, 75.0, 50.0, 75.0, 100.0]
    """

    waypoints: Sequence[tuple[int, float]]

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("need at least two waypoints")
        steps = [s for s, _ in self.waypoints]
        if steps != sorted(steps) or len(set(steps)) != len(steps):
            raise ValueError("waypoint steps must be strictly increasing")
        if any(d <= 0 for _, d in self.waypoints):
            raise ValueError("distances must be positive")

    def distances(self) -> np.ndarray:
        steps = np.array([s for s, _ in self.waypoints], dtype=float)
        dists = np.array([d for _, d in self.waypoints], dtype=float)
        xs = np.arange(int(steps[0]), int(steps[-1]) + 1, dtype=float)
        return np.interp(xs, steps, dists)


def approach_and_retreat(
    far: float = 100.0, near: float = 50.0, in_steps: int = 3, out_steps: int = 2
) -> PiecewiseLinearTrace:
    """FIG8's trace for client A: ``far → near`` then back out.

    Default reproduces the paper: 100 m down to 50 m across x-points 0–3,
    then increasing again across points 3–5.
    """
    return PiecewiseLinearTrace(
        [(0, far), (in_steps, near), (in_steps + out_steps, far)]
    )
