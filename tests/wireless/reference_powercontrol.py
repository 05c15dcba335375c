"""Reference power economics: ``repro.wireless.powercontrol`` before
FIG9b ran on the base station, kept as the oracle for
``tests/wireless/test_powercontrol.py``.  Here the utility works SIR out
again from path gains (Eq. 1); the runtime's takes the SIR a base station
reports.  Both use the runtime's ``frame_success_rate``, whose frame is
the 80 bits that ``frame_bits`` defaults to here.
"""

from __future__ import annotations

import numpy as np

from repro.wireless.powercontrol import frame_success_rate
from repro.wireless.sir import sir, to_db

__all__ = ["utility", "uniform_power_scaling"]


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
    f = frame_success_rate(gamma)
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
