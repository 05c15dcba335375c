"""ABL-EZW — progressive coder rate-distortion across packet budgets.

Why hierarchical (embedded) coding: a single truncatable stream serves
every client tier; this bench regenerates the coder's operating curve
(the substance behind FIG6/7's BPP/CR axes) and checks its cost.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.media.images import collaboration_scene
from repro.media.metrics import psnr
from repro.media.progressive import PACKET_COUNTS, ProgressiveImage, ReceivedImage


@pytest.mark.benchmark(group="ablations")
def test_coder_rate_distortion_curve(benchmark):
    img = collaboration_scene(128, 128)

    def build_curve():
        prog = ProgressiveImage(img, n_packets=16, target_bpp=2.2)
        rx = ReceivedImage(128, 128, 1, prog.levels, prog.t0_exps, 16)
        for p in prog.packets():
            rx.add_packet(p)
        return [rx.report(img, k) for k in PACKET_COUNTS]

    reports = run_once(benchmark, build_curve)
    print("\npackets  bpp    CR      PSNR")
    for r in reports:
        print(f"{r.packets_used:7d}  {r.bpp:5.2f}  {r.compression_ratio:6.1f}  {r.psnr_db:5.1f}")

    psnrs = [r.psnr_db for r in reports]
    assert all(b >= a - 0.25 for a, b in zip(psnrs, psnrs[1:]))  # monotone-ish
    assert psnrs[-1] > 35.0


@pytest.mark.benchmark(group="ablations")
def test_encode_throughput_128(benchmark):
    """Encoding cost of a 128x128 frame at the experiment rate."""
    img = collaboration_scene(128, 128)
    prog = benchmark(lambda: ProgressiveImage(img, n_packets=16, target_bpp=2.2))
    assert prog.total_bits > 0


@pytest.mark.benchmark(group="ablations")
def test_embedded_vs_fixed_quality(benchmark):
    """The design-choice ablation: one embedded stream vs per-tier
    re-encodes.  To serve K distinct quality tiers the fixed design runs
    the coder K times; embedded runs once and truncates."""
    img = collaboration_scene(64, 64)
    tiers = (1, 4, 16)

    def fixed_quality_design():
        total_bits = 0
        for k in tiers:
            prog = ProgressiveImage(img, n_packets=16, target_bpp=2.2 * k / 16)
            total_bits += prog.total_bits
        return total_bits

    fixed_bits = run_once(benchmark, fixed_quality_design)
    embedded = ProgressiveImage(img, n_packets=16, target_bpp=2.2)
    # embedded serves every tier from one stream no longer than its top rate
    assert embedded.total_bits < fixed_bits
    for k in tiers:
        assert psnr(img, embedded.reconstruct(k)) > 15.0
