"""FIG10 — Three wireless clients: joins degrade everyone's SIR.

Paper Sec. 6.3.3: "For client 2 joining ... the SIR of client A reduced
by 90% and when client 3 joined, the SIR of client A further reduced by
23%.  Hence, there exists an upper limit to the number of clients that
can join in a session."

The default geometry is solved from the paper's percentages (see
DESIGN.md): with noise σ² and path gain g(d) = k·d⁻⁴, a second client at
distance d₂ takes A's SIR down by exactly σ²/(P·g(d₂)+σ²); choosing
P·g(d₂) = 9σ² gives the 90 % drop, and P·g(d₃) = 0.3·(P·g(d₂)+σ²) the
further 23 %.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.framework import CollaborationFramework
from ..wireless.channel import NoiseModel, PathLossModel
from .harness import Claim, ExperimentResult

__all__ = ["run_fig10", "solve_join_geometry", "DROP_CLAIM"]

#: client A's distance (m)
D_A = 60.0
#: every client's transmit power
POWER = 1.0
#: the paper's drops of SIR_A: 90 % when client 2 joins, 23 % more at client 3
DROP2, DROP3 = 0.90, 0.23


def _drops_90_then_23(rows) -> bool:
    drops = [row["drop_vs_prev_pct"] for row in rows]
    return drops[0] is None and abs(drops[1] - 90.0) <= 2.0 and abs(drops[2] - 23.0) <= 2.0


DROP_CLAIM = Claim(
    "paper: client 2 joining cuts SIR_A by ~90%, client 3 by a further ~23%", _drops_90_then_23
)


def solve_join_geometry(pathloss: PathLossModel, noise: NoiseModel) -> tuple[float, float]:
    """Distances for clients 2 and 3 producing the paper's SIR drops.

    After client 2 joins, SIR_A scales by σ²/(P·g₂+σ²) = 1−DROP2;
    after client 3, by (P·g₂+σ²)/(P·g₂+P·g₃+σ²) = 1−DROP3.
    """
    s2 = noise.sigma2
    g2 = s2 * (DROP2 / (1.0 - DROP2)) / POWER
    i2 = POWER * g2 + s2
    g3 = i2 * (DROP3 / (1.0 - DROP3)) / POWER
    return pathloss.distance_for_gain(g2), pathloss.distance_for_gain(g3)


def run_fig10() -> ExperimentResult:
    """Sequential joins; records SIR_A (and all SIRs) after each join."""
    pathloss = PathLossModel(alpha=4.0, k=1e6)
    noise = NoiseModel(reference_power=1.0, snr_ref_db=40.0)
    d2, d3 = solve_join_geometry(pathloss, noise)

    result = ExperimentResult(
        "FIG10",
        "3 wireless clients: session-size limit from interference",
        columns=(
            "n_clients",
            "sir_a_linear",
            "sir_a_db",
            "drop_vs_prev_pct",
            "tier_a",
            "joined",
        ),
        claims=[DROP_CLAIM],
    )
    fw = CollaborationFramework("fig10", objective="join-degradation sweep", seed=0)
    bs = fw.add_base_station("bs", pathloss=pathloss, noise=noise)
    fw.add_wireless_client("client-a", bs, distance=D_A, tx_power=POWER)

    prev_sir: Optional[float] = None
    joins = [("client-a", None), ("client-b", d2), ("client-c", d3)]
    for n, (cid, dist) in enumerate(joins, start=1):
        if dist is not None:
            fw.add_wireless_client(cid, bs, distance=dist, tx_power=POWER)
        snap = bs.evaluate_qos()
        sir_a_db, tier_a = snap.for_client("client-a")
        sir_a_lin = 10.0 ** (sir_a_db / 10.0)
        drop = None
        if prev_sir is not None:
            drop = 100.0 * (1.0 - sir_a_lin / prev_sir)
        result.add_row(
            n_clients=n,
            sir_a_linear=sir_a_lin,
            sir_a_db=sir_a_db,
            drop_vs_prev_pct=drop,
            tier_a=tier_a.name,
            joined=cid,
        )
        prev_sir = sir_a_lin
    result.note(f"geometry solved for the paper's drops: d2={d2:.0f} m, d3={d3:.0f} m")
    return result
