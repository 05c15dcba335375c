"""ABL-SNAP — the paper's power-of-two packet discretization.

The inference engine snaps budgets to {0,1,2,4,8,16} ("the numbers of
packets vary from 1 to 16 in powers of 2").  The ablation quantifies
what that coarseness costs against a hypothetical continuous budget:
bounded quality loss (< the one-halving step) for a 3-entry policy table
instead of a 16-entry one.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.media.images import collaboration_scene
from repro.media.metrics import psnr
from repro.media.progressive import ProgressiveImage

SNAPS = (0, 1, 2, 4, 8, 16)


def snap_down(k: int) -> int:
    return max(s for s in SNAPS if s <= k)


@pytest.mark.benchmark(group="ablations")
def test_power_of_two_snap_cost(benchmark):
    def measure():
        img = collaboration_scene(64, 64)
        prog = ProgressiveImage(img, n_packets=16, target_bpp=2.2)
        rows = []
        for k in range(1, 17):
            exact = psnr(img, prog.reconstruct(k))
            snapped = psnr(img, prog.reconstruct(snap_down(k)))
            rows.append((k, snap_down(k), exact, snapped))
        return rows

    rows = run_once(benchmark, measure)
    print("\nbudget  snapped  psnr_exact  psnr_snapped  delta")
    worst = 0.0
    for k, s, pe, ps in rows:
        delta = pe - ps
        worst = max(worst, delta)
        print(f"{k:6d}  {s:7d}  {pe:10.1f}  {ps:12.1f}  {delta:5.1f}")

    # snapping never *helps* quality and costs at most one halving step
    assert all(pe >= ps - 0.3 for _, _, pe, ps in rows)
    # the worst case is the step just below a power of two (e.g. 15 -> 8)
    worst_k = max(rows, key=lambda r: r[2] - r[3])[0]
    assert worst_k in (3, 7, 15)
    # and stays bounded: the embedded coder degrades gracefully
    assert worst < 15.0
