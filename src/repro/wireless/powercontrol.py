"""Power economics for the wireless extension.

**Utility-based power economics** (Goodman & Mandayam 2000, paper ref
[9]): utility = information bits delivered per joule::

    u_i = L * R * f(gamma_i) / (M * P_i)

with frame-success function ``f(gamma) = (1 - exp(-gamma/2))**M``.
The paper's claim — "if all the clients transmit at a power level
reduced by the same factor from the original power, the net utility at
the target is increased for all the clients" — holds in the
interference-limited regime.  FIG9b (``experiments/fig9.py``) checks it
in tier-1 on the FIG8 cell: :func:`utility` of the SIR its base station
reports before and after the cut.

The session's own power control is
``BaseStation.apply_power_control``: one step that scales an
over-powered client toward the image threshold plus a margin, issuing
"transmit at lower power" requests (paper: SIR threshold 4 dB, achieved
7 dB → request lower power, conserving battery).
"""

from __future__ import annotations

import numpy as np

from .sir import from_db

__all__ = ["frame_success_rate", "utility"]

#: channel rate (bit/s), frame length (bits) and information bits per frame of
#: the Goodman–Mandayam utility
RATE_BPS = 10_000.0
FRAME_LENGTH = 80
INFO_BITS = 64


def frame_success_rate(gamma: np.ndarray) -> np.ndarray:
    """Probability a :data:`FRAME_LENGTH`-bit frame survives at SIR ``gamma``.

    The non-coherent FSK approximation used by Goodman–Mandayam:
    ``f(gamma) = (1 - exp(-gamma/2)) ** M``, with ``1 - exp`` taken as
    ``-expm1``: at -40 dB the subtraction would lose four of sixteen
    digits, and the power ``M`` multiplies that error by 80.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("SIR must be non-negative")
    return (-np.expm1(-g / 2.0)) ** FRAME_LENGTH


def utility(sir_db: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-client utility in bits/joule (Goodman–Mandayam Eq. form) at
    the SIR ``sir_db`` a base station reports and transmit ``powers``.

    ``u_i = INFO_BITS * RATE_BPS * f(gamma_i) / (FRAME_LENGTH * P_i)``
    """
    p = np.asarray(powers, dtype=float)
    if np.any(p <= 0):
        raise ValueError("powers must be positive for utility")
    f = frame_success_rate(from_db(sir_db))
    return INFO_BITS * RATE_BPS * f / (FRAME_LENGTH * p)
