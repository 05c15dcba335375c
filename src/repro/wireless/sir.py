"""Signal-to-interference ratio — the paper's Eq. (1), vectorized.

For client *i* among *n* clients transmitting to one base station::

    SIR_i = P_i * g_i / ( sum_{j != i} P_j * g_j  +  sigma^2 )

All functions accept numpy arrays and evaluate every client in one
vectorized call (per the HPC guide: vectorize the hot loop, no per-client
Python arithmetic).
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["sir", "sir_db", "to_db", "from_db", "sir_matrix"]


def to_db(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Linear power ratio → decibels."""
    return 10.0 * np.log10(x)


def from_db(x_db: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Decibels → linear power ratio."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def sir(powers: np.ndarray, gains: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-client SIR for one system state.

    Parameters
    ----------
    powers, gains:
        Shape ``(n,)`` transmit powers and path gains.
    sigma2:
        Receiver noise power (>= 0).

    Returns
    -------
    ndarray of shape ``(n,)``: linear SIR per client.
    """
    p = np.asarray(powers, dtype=float)
    g = np.asarray(gains, dtype=float)
    if p.shape != g.shape or p.ndim != 1:
        raise ValueError(f"powers/gains must be equal 1-D shapes, got {p.shape} vs {g.shape}")
    if np.any(p < 0) or np.any(g < 0):
        raise ValueError("powers and gains must be non-negative")
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    received = p * g
    total = received.sum()
    interference = total - received  # sum over j != i, no Python loop
    denom = interference + sigma2
    if np.any(denom <= 0):
        raise ValueError("zero denominator: no interference and no noise")
    return received / denom


def sir_db(powers: np.ndarray, gains: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-client SIR in dB (see :func:`sir`)."""
    return to_db(sir(powers, gains, sigma2))


def sir_matrix(powers: np.ndarray, gain_matrix: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Multi-cell SIR: client *i* heard at base station *b*.

    Parameters
    ----------
    powers:
        ``(n,)`` client transmit powers.
    gain_matrix:
        ``(b, n)`` path gain of client *j* at base station *b*.
    sigma2:
        ``(b,)`` per-base-station noise powers.

    Returns
    -------
    ndarray ``(b, n)``: SIR of client *j*'s signal at base station *b*,
    treating all other clients as interference at that station.  Used by
    the multi-base-station extension experiments.
    """
    p = np.asarray(powers, dtype=float)
    G = np.asarray(gain_matrix, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if G.ndim != 2 or G.shape[1] != p.shape[0]:
        raise ValueError(f"gain_matrix {G.shape} incompatible with powers {p.shape}")
    received = G * p[None, :]  # (b, n)
    total = received.sum(axis=1, keepdims=True)
    return received / (total - received + s2[:, None])
