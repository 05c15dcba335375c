"""Wireless channel models: path gain and receiver noise.

The paper simulates its wireless network (Sec. 6.3): clients at distances
``d_i`` from the base station transmit at powers ``P_i``; the channel is
characterised by *path gains* ``g_i`` and a noise term σ² "calculated based
on the transmitting power" of a reference client.

We use the standard power-law path-loss model of the era's power-control
literature (Goodman & Mandayam 2000, which the paper cites)::

    g(d) = k * d**(-alpha)

with path-loss exponent ``alpha`` (2 = free space, ~4 = urban macro-cell)
and gain constant ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["PathLossModel", "NoiseModel", "ChannelError"]

ArrayLike = Union[float, np.ndarray]

#: Distances (metres) are clamped below to this, keeping the near-field
#: singularity out of the simulation.
MIN_DISTANCE = 1.0


class ChannelError(ValueError):
    """Raised on unphysical channel parameters."""


@dataclass
class PathLossModel:
    """Deterministic power-law path loss.

    Parameters
    ----------
    alpha:
        Path-loss exponent.  The cited Goodman–Mandayam model uses 4.
    k:
        Gain at unit distance (antenna constants folded in).
    """

    alpha: float = 4.0
    k: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ChannelError(f"alpha must be positive, got {self.alpha}")
        if self.k <= 0:
            raise ChannelError(f"k must be positive, got {self.k}")

    def gain(self, distance: ArrayLike) -> ArrayLike:
        """Path gain at ``distance`` metres (scalar or vectorized)."""
        d = np.maximum(np.asarray(distance, dtype=float), MIN_DISTANCE)
        g = self.k * d ** (-self.alpha)
        if np.ndim(distance) == 0:
            return float(g)
        return g

    def distance_for_gain(self, gain: float) -> float:
        """Invert the deterministic model: the distance giving ``gain``."""
        if gain <= 0:
            raise ChannelError("gain must be positive")
        return (self.k / gain) ** (1.0 / self.alpha)


@dataclass
class NoiseModel:
    """Receiver noise power at the base station.

    The paper ties σ² to a reference transmit power (its Eq. 1 text:
    "the noise factor σ² is calculated based on the transmitting power of
    client (P/10^...)").  We therefore model::

        sigma2 = reference_power / 10**(snr_ref_db / 10)

    i.e. a reference client at unit gain sees ``snr_ref_db`` of SNR.
    """

    reference_power: float = 1.0
    snr_ref_db: float = 40.0

    def __post_init__(self) -> None:
        if self.reference_power <= 0:
            raise ChannelError("reference_power must be positive")

    @property
    def sigma2(self) -> float:
        """Noise power in the same units as transmit power × gain."""
        return self.reference_power / 10.0 ** (self.snr_ref_db / 10.0)
