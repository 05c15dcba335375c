"""FIG9 — Two wireless clients, varying transmit power.

Paper Sec. 6.3.2: A's transmit power is stepped up at fixed distances.
A's SIR rises, B's falls.  Two further claims are exercised:

* Goodman–Mandayam scaling (FIG9b) — "if all the clients transmit at a
  power level reduced by the same factor ... the net utility at the
  target is increased for all the clients" (utility = bits/joule of the
  SIR the FIG8 cell's base station reports; SIR dips slightly because
  noise does not scale, but energy efficiency wins);
* "varying the distance is more effective than a variation in power" —
  with path-loss exponent 4, halving distance buys 16× received power
  versus 2× for doubling transmit power.
"""

from __future__ import annotations

from ..wireless.powercontrol import utility
from .fig8 import build_two_client_cell
from .harness import Claim, ExperimentResult

__all__ = ["run_fig9", "run_fig9_scaling", "SIR_CLAIM", "UTILITY_CLAIM"]

#: client A's transmit-power steps
POWER_STEPS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
#: both clients' fixed distance (m) in the power sweep
DISTANCE = 80.0
#: the uniform scaling: both clients start at SCALING_POWER at
#: SCALING_DISTANCES (m) and scale their power by SCALING_FACTOR
SCALING_FACTOR = 0.5
SCALING_DISTANCES = (80.0, 100.0)
SCALING_POWER = 2.0


def _sir_a_rises_sir_b_falls(rows) -> bool:
    sa = [row["sir_a_db"] for row in rows]
    sb = [row["sir_b_db"] for row in rows]
    return all(x < y for x, y in zip(sa, sa[1:])) and all(x > y for x, y in zip(sb, sb[1:]))


def _utility_rises_for_all(rows) -> bool:
    return all(row["utility_gain"] > 1 for row in rows)


SIR_CLAIM = Claim("paper: raising A's power raises SIR_A and depresses SIR_B", _sir_a_rises_sir_b_falls)
UTILITY_CLAIM = Claim(
    "paper: utility (bits/joule) improves for every client (utility_gain = after / before)",
    _utility_rises_for_all,
)


def run_fig9() -> ExperimentResult:
    """Power sweep for client A at fixed, equal distances."""
    result = ExperimentResult(
        "FIG9",
        "2 wireless clients, varying power of A",
        columns=("step", "power_a", "power_b", "sir_a_db", "sir_b_db", "tier_a", "tier_b"),
        claims=[SIR_CLAIM],
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
    return result


def run_fig9_scaling() -> ExperimentResult:
    """Goodman–Mandayam uniform power reduction (both clients × factor),
    measured by the base station of the FIG8 cell."""
    result = ExperimentResult(
        "FIG9b",
        f"uniform power scaling x{SCALING_FACTOR} (Goodman-Mandayam)",
        columns=("client", "power_before", "power_after", "sir_db_before", "sir_db_after", "utility_gain"),
        claims=[UTILITY_CLAIM],
    )
    fw, bs, *clients, _wired = build_two_client_cell(*SCALING_DISTANCES)
    powers = (SCALING_POWER, SCALING_POWER * SCALING_FACTOR)
    snaps = []
    for power in powers:
        for client in clients:
            client.set_power(power)
        fw.run_for(0.5)
        snaps.append(bs.evaluate_qos())
    for client in clients:
        sirs = [snap.for_client(client.name)[0] for snap in snaps]
        before, after = (utility(s, p) for s, p in zip(sirs, powers))
        result.add_row(
            client=client.name,
            power_before=powers[0],
            power_after=powers[1],
            sir_db_before=sirs[0],
            sir_db_after=sirs[1],
            utility_gain=float(after / before),
        )
    return result
