"""Link quality: SIR → bit error rate → packet loss.

The paper gates *modality* on SIR thresholds; physically, low SIR also
means bit errors and lost frames.  This module provides the standard
non-coherent FSK error model (consistent with the Goodman–Mandayam
frame-success function already used in power control)::

    BER(gamma)  = 0.5 * exp(-gamma / 2)
    P_loss(pkt) = 1 - (1 - BER)**bits

so the simulated radio link's loss rate can be *coupled* to the live SIR
(:meth:`~repro.core.basestation.BaseStation.couple_channel`), making the
RTP layer, the tier policy and the physics interact the way a real
deployment would.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .sir import from_db

__all__ = ["bit_error_rate", "packet_loss_probability", "loss_for_sir_db"]

ArrayLike = Union[float, np.ndarray]

#: A bulk data frame: 1000 bytes, the size an image fragment travels in.
FRAME_BITS = 8000


def bit_error_rate(gamma: ArrayLike) -> ArrayLike:
    """Non-coherent FSK BER at linear SIR ``gamma`` (capped at 0.5)."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("SIR must be non-negative")
    ber = 0.5 * np.exp(-g / 2.0)
    return float(ber) if np.ndim(gamma) == 0 else ber


def packet_loss_probability(gamma: ArrayLike, packet_bits: int = FRAME_BITS) -> ArrayLike:
    """Probability a ``packet_bits``-bit frame is lost at SIR ``gamma``.

    Assumes independent bit errors and no FEC — the pessimistic bound the
    paper's era hardware roughly obeyed for long frames.
    """
    if packet_bits <= 0:
        raise ValueError("packet_bits must be positive")
    ber = np.asarray(bit_error_rate(gamma), dtype=float)
    loss = 1.0 - (1.0 - ber) ** packet_bits
    return float(loss) if np.ndim(gamma) == 0 else loss


def loss_for_sir_db(
    sir_db: ArrayLike,
    packet_bits: int = FRAME_BITS,
    cap: float = 0.98,
    coding_gain_db: float = 10.0,
) -> ArrayLike:
    """Convenience: dB in, loss probability out (capped below 1.0).

    ``coding_gain_db`` models FEC + spreading: the effective SIR seen by
    the detector is ``sir_db + coding_gain_db``.  The default 10 dB puts
    the paper's 4 dB full-image threshold at ≈1.4 % packet loss for
    1000-byte fragments — heavy but workable, exactly the regime where
    tier gating starts to matter — while channels below the sketch
    threshold are effectively dead for bulk data (the physical
    justification for the BS's modality tiers).

    The cap keeps a coupled simulator link formally usable for short,
    retried control frames even on a dead data channel.
    """
    loss = packet_loss_probability(from_db(np.asarray(sir_db) + coding_gain_db), packet_bits)
    clipped = np.minimum(loss, cap)
    return float(clipped) if np.ndim(sir_db) == 0 else clipped
