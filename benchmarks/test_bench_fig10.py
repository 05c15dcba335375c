"""BENCH FIG10 — three wireless clients: joins degrade SIR (Sec. 6.3.3).

Paper anchors: 2nd join cuts A's SIR by ~90 %, 3rd join by a further
~23 %; an upper limit on session size follows.
"""

import pytest

from conftest import run_once
from repro.experiments.fig10 import run_fig10


@pytest.mark.benchmark(group="figures")
def test_fig10_join_degradation(benchmark):
    result = run_once(benchmark, run_fig10)
    print("\n" + result.format_table())

    sirs = [row["sir_a_linear"] for row in result.rows]
    drops = [row["drop_vs_prev_pct"] for row in result.rows]

    # every join strictly degrades the incumbent
    assert sirs == sorted(sirs, reverse=True)

    # the paper's percentages (geometry solved for them; see DESIGN.md)
    assert drops[1] == pytest.approx(90.0, abs=2.0)
    assert drops[2] == pytest.approx(23.0, abs=2.0)

    # session-size limit: with both interferers in, A's SIR is a tiny
    # fraction of its solo value
    assert sirs[-1] < 0.1 * sirs[0]
