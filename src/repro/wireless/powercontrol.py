"""Power control algorithms for the wireless extension.

Two families, both referenced by the paper:

* **Target-SIR tracking** (Foschini–Miljanic 1993): each client scales its
  power by ``gamma_target / gamma_achieved`` every iteration.  Converges to
  the minimal power vector meeting all targets when the system is feasible
  (spectral radius of the normalized gain matrix < 1).  Nothing in the
  session runs it: ``BaseStation.apply_power_control`` takes one step of
  its own, scaling an over-powered client toward the image threshold plus
  a margin, to issue "transmit at lower power" requests (paper: SIR
  threshold 4 dB, achieved 7 dB → request lower power, conserving battery).

* **Utility-based power economics** (Goodman & Mandayam 2000, paper ref
  [9]): utility = information bits delivered per joule::

      u_i = L * R * f(gamma_i) / (M * P_i)

  with frame-success function ``f(gamma) = (1 - exp(-gamma/2))**M``.
  The paper's claim — "if all the clients transmit at a power level
  reduced by the same factor from the original power, the net utility at
  the target is increased for all the clients" — holds in the
  interference-limited regime and is exercised by the FIG9 bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .sir import from_db, sir, to_db

__all__ = [
    "frame_success_rate",
    "utility",
    "uniform_power_scaling",
    "foschini_miljanic",
    "PowerControlResult",
    "feasible_targets",
    "sir_balancing_power",
]


def frame_success_rate(gamma: np.ndarray, frame_bits: int = 80) -> np.ndarray:
    """Probability an ``frame_bits``-bit frame survives at SIR ``gamma``.

    The non-coherent FSK approximation used by Goodman–Mandayam:
    ``f(gamma) = (1 - exp(-gamma/2)) ** M``.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("SIR must be non-negative")
    return (1.0 - np.exp(-g / 2.0)) ** frame_bits


def utility(
    powers: np.ndarray,
    gains: np.ndarray,
    sigma2: float,
    rate_bps: float = 10_000.0,
    frame_bits: int = 80,
    info_bits: int = 64,
) -> np.ndarray:
    """Per-client utility in bits/joule (Goodman–Mandayam Eq. form).

    ``u_i = info_bits * rate * f(gamma_i) / (frame_bits * P_i)``
    """
    p = np.asarray(powers, dtype=float)
    if np.any(p <= 0):
        raise ValueError("powers must be positive for utility")
    gamma = sir(p, gains, sigma2)
    f = frame_success_rate(gamma, frame_bits)
    return info_bits * rate_bps * f / (frame_bits * p)


def uniform_power_scaling(
    powers: np.ndarray,
    gains: np.ndarray,
    sigma2: float,
    factor: float,
    **utility_kwargs,
) -> dict:
    """Scale every client's power by ``factor`` and report the effect.

    Returns a dict with before/after SIR (dB) and utility arrays; the FIG9
    bench asserts that for ``factor < 1`` in the interference-limited
    regime every client's *utility* rises even as each SIR dips slightly.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    p0 = np.asarray(powers, dtype=float)
    p1 = p0 * factor
    return {
        "powers_before": p0,
        "powers_after": p1,
        "sir_db_before": to_db(sir(p0, gains, sigma2)),
        "sir_db_after": to_db(sir(p1, gains, sigma2)),
        "utility_before": utility(p0, gains, sigma2, **utility_kwargs),
        "utility_after": utility(p1, gains, sigma2, **utility_kwargs),
    }


@dataclass
class PowerControlResult:
    """Outcome of an iterative power-control run."""

    powers: np.ndarray
    sir_db: np.ndarray
    iterations: int
    converged: bool
    history: list[np.ndarray] = field(default_factory=list)


def feasible_targets(
    gains: np.ndarray, targets_db: np.ndarray, sigma2: float = 0.0
) -> bool:
    """Check Foschini–Miljanic feasibility.

    The target vector is achievable iff the spectral radius of
    ``diag(gamma_t) * F`` is < 1, where ``F[i, j] = g_j / g_i`` for
    ``i != j`` (single-cell normalized cross-gain matrix).
    """
    g = np.asarray(gains, dtype=float)
    t = from_db(np.asarray(targets_db, dtype=float))
    n = g.shape[0]
    if n == 1:
        return True  # single client: always feasible given enough power
    F = np.where(np.eye(n, dtype=bool), 0.0, g[None, :] / g[:, None])
    A = t[:, None] * F
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    return rho < 1.0


def foschini_miljanic(
    gains: np.ndarray,
    targets_db: np.ndarray,
    sigma2: float,
    p0: Optional[np.ndarray] = None,
    max_power: float = 10.0,
    max_iter: int = 500,
    tol_db: float = 0.01,
    keep_history: bool = False,
) -> PowerControlResult:
    """Distributed target-SIR tracking: ``P <- P * target/achieved``.

    Powers are clamped to ``max_power`` (battery/device limit), so an
    infeasible system saturates rather than diverges — this is exactly the
    "upper limit to the number of clients" behaviour of FIG10.
    """
    g = np.asarray(gains, dtype=float)
    n = g.shape[0]
    targets = from_db(np.broadcast_to(np.asarray(targets_db, dtype=float), (n,)))
    p = np.full(n, 0.1 * max_power) if p0 is None else np.asarray(p0, dtype=float).copy()
    history: list[np.ndarray] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        gamma = sir(p, g, sigma2)
        if keep_history:
            history.append(p.copy())
        if np.all(np.abs(to_db(gamma) - to_db(targets)) < tol_db):
            converged = True
            break
        p = np.minimum(p * targets / gamma, max_power)
    gamma = sir(p, g, sigma2)
    return PowerControlResult(
        powers=p,
        sir_db=np.asarray(to_db(gamma)),
        iterations=it,
        converged=converged,
        history=history,
    )


def sir_balancing_power(gains: np.ndarray, sigma2: float, total_power: float) -> np.ndarray:
    """Split a power budget so all clients see equal received power.

    With equal received powers ``P_i g_i = c`` every client's SIR equals
    ``c / ((n-1) c + sigma2)`` — the max-min fair point for a single cell.
    Used by the BS when admitting heterogeneous-distance clients.
    """
    g = np.asarray(gains, dtype=float)
    if np.any(g <= 0):
        raise ValueError("gains must be positive")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    inv = 1.0 / g
    return total_power * inv / inv.sum()
