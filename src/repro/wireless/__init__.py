"""Wireless channel substrate: path loss, SIR (paper Eq. 1), power economics,
mobility traces.  The paper simulates its wireless network; this package is
that simulation, vectorized."""

from .channel import ChannelError, NoiseModel, PathLossModel
from .sir import from_db, sir, sir_db, sir_matrix, to_db
from .powercontrol import frame_success_rate, uniform_power_scaling, utility
from .linkquality import (
    bit_error_rate,
    loss_for_sir_db,
    packet_loss_probability,
)
from .mobility import MobilityTrace, PiecewiseLinearTrace, approach_and_retreat

__all__ = [
    "ChannelError",
    "NoiseModel",
    "PathLossModel",
    "from_db",
    "sir",
    "sir_db",
    "sir_matrix",
    "to_db",
    "frame_success_rate",
    "uniform_power_scaling",
    "utility",
    "bit_error_rate",
    "loss_for_sir_db",
    "packet_loss_probability",
    "MobilityTrace",
    "PiecewiseLinearTrace",
    "approach_and_retreat",
]
