"""FIG9 — Two wireless clients, varying transmit power.

Paper Sec. 6.3.2: A's transmit power is stepped up at fixed distances.
A's SIR rises, B's falls.  Two further claims are exercised:

* Goodman–Mandayam scaling — "if all the clients transmit at a power
  level reduced by the same factor ... the net utility at the target is
  increased for all the clients" (utility = bits/joule; SIR dips
  slightly because noise does not scale, but energy efficiency wins);
* "varying the distance is more effective than a variation in power" —
  with path-loss exponent 4, halving distance buys 16× received power
  versus 2× for doubling transmit power.
"""

from __future__ import annotations

import numpy as np

from ..wireless.channel import NoiseModel, PathLossModel
from ..wireless.powercontrol import uniform_power_scaling
from .fig8 import build_two_client_cell
from .harness import ExperimentResult

__all__ = ["run_fig9", "run_fig9_scaling"]

#: client A's transmit-power steps
POWER_STEPS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
#: both clients' fixed distance (m) in the power sweep
DISTANCE = 80.0
#: the uniform scaling: both clients start at SCALING_POWER at
#: SCALING_DISTANCES (m) and scale their power by SCALING_FACTOR
SCALING_FACTOR = 0.5
SCALING_DISTANCES = (80.0, 100.0)
SCALING_POWER = 2.0


def run_fig9() -> ExperimentResult:
    """Power sweep for client A at fixed, equal distances."""
    result = ExperimentResult(
        "FIG9",
        "2 wireless clients, varying power of A",
        columns=("step", "power_a", "power_b", "sir_a_db", "sir_b_db", "tier_a", "tier_b"),
    )
    fw, bs, a, b, _wired = build_two_client_cell(DISTANCE, DISTANCE)
    for step, power in enumerate(POWER_STEPS):
        a.set_power(power)
        fw.run_for(0.5)
        snap = bs.evaluate_qos()
        sir_a, tier_a = snap.for_client("client-a")
        sir_b, tier_b = snap.for_client("client-b")
        result.add_row(
            step=step,
            power_a=power,
            power_b=b.tx_power,
            sir_a_db=sir_a,
            sir_b_db=sir_b,
            tier_a=tier_a.name,
            tier_b=tier_b.name,
        )
    result.note("paper: raising A's power raises SIR_A and depresses SIR_B")
    return result


def run_fig9_scaling() -> ExperimentResult:
    """Goodman–Mandayam uniform power reduction (both clients × factor)."""
    pathloss = PathLossModel(alpha=4.0, k=1e6)
    noise = NoiseModel(reference_power=1.0, snr_ref_db=40.0)
    gains = np.array([pathloss.gain(d) for d in SCALING_DISTANCES])
    powers = np.array([SCALING_POWER, SCALING_POWER])
    out = uniform_power_scaling(powers, gains, noise.sigma2, SCALING_FACTOR)
    result = ExperimentResult(
        "FIG9b",
        f"uniform power scaling x{SCALING_FACTOR} (Goodman-Mandayam)",
        columns=("client", "power_before", "power_after", "sir_db_before", "sir_db_after", "utility_gain"),
    )
    for i, cid in enumerate(("client-a", "client-b")):
        result.add_row(
            client=cid,
            power_before=float(out["powers_before"][i]),
            power_after=float(out["powers_after"][i]),
            sir_db_before=float(out["sir_db_before"][i]),
            sir_db_after=float(out["sir_db_after"][i]),
            utility_gain=float(out["utility_after"][i] / out["utility_before"][i]),
        )
    result.note("paper claim: utility (bits/joule) improves for every client (utility_gain = after / before)")
    return result
