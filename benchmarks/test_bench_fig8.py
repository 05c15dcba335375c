"""BENCH FIG8 — two wireless clients, varying distance (paper Sec. 6.3.1).

Client A moves 100 m → 50 m → 100 m; the BS recomputes SIR each point and
selects the modality tier (image threshold 4 dB).
"""

import numpy as np
import pytest

from conftest import run_once
from repro.experiments.fig8 import run_fig8


@pytest.mark.benchmark(group="figures")
def test_fig8_distance_sweep(benchmark):
    result = run_once(benchmark, run_fig8)
    print("\n" + result.format_table())

    sa = np.array([row["sir_a_db"] for row in result.rows])
    sb = np.array([row["sir_b_db"] for row in result.rows])
    tiers_a = [row["tier_a"] for row in result.rows]
    tiers_b = [row["tier_b"] for row in result.rows]

    # approaching (points 0-3) monotonically improves A and degrades B
    assert np.all(np.diff(sa[:4]) > 0)
    assert np.all(np.diff(sb[:4]) < 0)
    # retreating mirrors
    assert np.all(np.diff(sa[3:]) < 0)
    assert np.all(np.diff(sb[3:]) > 0)
    # the trace is symmetric: endpoints match
    assert sa[0] == pytest.approx(sa[-1], abs=0.2)

    # "changes the SIR considerably": >10 dB swing for A
    assert sa.max() - sa.min() > 10.0

    # tier transitions: A crosses from degraded up to FULL_IMAGE at 50 m
    assert tiers_a[0] != "FULL_IMAGE"
    assert tiers_a[3] == "FULL_IMAGE"
    # B loses service as A gets close (interference)
    assert tiers_b[3] in ("TEXT_ONLY", "NOTHING")


@pytest.mark.benchmark(group="figures")
def test_fig8_uplink_dataflow(benchmark):
    """The narrative behind Fig. 8: the BS forwards whatever modality the
    sender's SIR supports — packets at full tier, text otherwise."""
    from repro.experiments.fig8 import run_fig8_dataflow

    result = run_once(benchmark, run_fig8_dataflow)
    print("\n" + result.format_table())
    for row in result.rows:
        if row["tier_a"] == "FULL_IMAGE":
            assert row["session_got_packets"]
        elif row["tier_a"] != "NOTHING":
            assert row["session_got_text"] and not row["session_got_packets"]
    # the sweep exercises both regimes
    tiers = {row["tier_a"] for row in result.rows}
    assert "FULL_IMAGE" in tiers and len(tiers) >= 2
