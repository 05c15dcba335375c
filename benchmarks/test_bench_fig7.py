"""BENCH FIG7 — image-viewer parameters vs CPU load (paper Sec. 6.2).

Color image; packets 16 → 0 over 30–100 % CPU; BPP 14.3 → 0.7 and CR
1.6 → 32.7 reported (24-bit raw baseline).
"""

import pytest

from conftest import run_once
from repro.experiments.fig7 import run_fig7


@pytest.mark.benchmark(group="figures")
def test_fig7_cpu_load_sweep(benchmark):
    result = run_once(benchmark, run_fig7)
    print("\n" + result.format_table())

    packets = [row["packets"] for row in result.rows]
    bpps = [row["bpp"] for row in result.rows]
    crs = [row["compression_ratio"] for row in result.rows if row["compression_ratio"] is not None]

    # packets drop from 16 all the way to 0 at saturation
    assert packets[0] == 16
    assert packets[-1] == 0
    assert packets == sorted(packets, reverse=True)

    # BPP anchors: ~14.3 at full quality, <1 at one packet, 0 at zero
    assert bpps[0] == pytest.approx(14.3, rel=0.1)
    one_packet_rows = [r for r in result.rows if r["packets"] == 1]
    assert one_packet_rows and one_packet_rows[0]["bpp"] == pytest.approx(0.9, rel=0.3)
    assert bpps[-1] == 0.0

    # CR anchors: ~1.6 at 16 packets, tens at 1 packet (paper: 1.6 -> 32.7)
    assert crs[0] == pytest.approx(1.68, rel=0.1)
    assert 15.0 < crs[-1] < 60.0
