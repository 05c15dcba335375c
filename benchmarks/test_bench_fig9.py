"""BENCH FIG9 — two wireless clients, varying power (paper Sec. 6.3.2).

A's power is stepped up; plus the Goodman–Mandayam uniform-reduction
claim and the "distance beats power" observation.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.experiments.fig9 import run_fig9, run_fig9_scaling
from repro.wireless.channel import PathLossModel


@pytest.mark.benchmark(group="figures")
def test_fig9_power_sweep(benchmark):
    result = run_once(benchmark, run_fig9)
    print("\n" + result.format_table())

    sa = np.array([row["sir_a_db"] for row in result.rows])
    sb = np.array([row["sir_b_db"] for row in result.rows])
    assert np.all(np.diff(sa) > 0)   # A rises with its power
    assert np.all(np.diff(sb) < 0)   # B falls (A is B's interference)

    # crossing the 4 dB image threshold happens inside the sweep
    tiers = [row["tier_a"] for row in result.rows]
    assert tiers[0] != "FULL_IMAGE" and tiers[-1] == "FULL_IMAGE"


@pytest.mark.benchmark(group="figures")
def test_fig9_goodman_mandayam_scaling(benchmark):
    result = run_once(benchmark, run_fig9_scaling)
    print("\n" + result.format_table(float_fmt="{:.4g}"))
    for row in result.rows:
        # paper: "net utility ... is increased for all the clients"
        assert row["utility_after"] > row["utility_before"]
        # SIR dips only marginally (interference-limited regime)
        assert row["sir_db_before"] - row["sir_db_after"] < 0.5


@pytest.mark.benchmark(group="figures")
def test_fig9_distance_more_effective_than_power(benchmark):
    """Paper: 'varying the distance is more effective than a variation in
    power' — with alpha=4, halving distance = 16x received power."""

    def compute():
        pl = PathLossModel(alpha=4.0, k=1e6)
        return pl.gain(40.0) / pl.gain(80.0), 2.0  # distance-halving vs power-doubling

    distance_gain, power_gain = run_once(benchmark, compute)
    assert distance_gain == pytest.approx(16.0)
    assert distance_gain > power_gain
