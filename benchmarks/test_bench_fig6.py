"""BENCH FIG6 — image-viewer parameters vs page faults (paper Sec. 6.1).

Regenerates the three series of Figure 6: packets vs page faults,
compression ratio vs packets, BPP vs packets — through the full stack
(workload → host → SNMP → inference → multicast → progressive decode).
"""

import pytest

from conftest import run_once
from repro.experiments.fig6 import run_fig6


@pytest.mark.benchmark(group="figures")
def test_fig6_page_fault_sweep(benchmark):
    result = run_once(benchmark, run_fig6)
    print("\n" + result.format_table())

    packets = [row["packets"] for row in result.rows]
    bpps = [row["bpp"] for row in result.rows]
    crs = [row["compression_ratio"] for row in result.rows]

    # paper shape 1: packets 16 -> 1, powers of two, monotone non-increasing
    assert packets[0] == 16
    assert packets[-1] == 1
    assert packets == sorted(packets, reverse=True)
    assert set(packets) == {16, 8, 4, 2, 1}

    # paper shape 2: compression ratio rises as packets fall (3.6 -> 131 reported)
    assert crs == sorted(crs)
    assert crs[0] == pytest.approx(3.6, rel=0.15)
    assert crs[-1] > 10 * crs[0]

    # paper shape 3: BPP falls (2.1 -> 0.1 reported)
    assert bpps == sorted(bpps, reverse=True)
    assert bpps[0] == pytest.approx(2.2, rel=0.15)
    assert bpps[-1] < 0.2
