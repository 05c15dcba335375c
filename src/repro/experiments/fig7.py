"""FIG7 — Image-viewer parameters versus CPU load.

Paper Sec. 6.2: CPU load sweeps 30 → 100 %, dropping the packet budget
from 16 to 0.  The reported BPP range (14.3 → 0.7) and compression-ratio
range (1.6 → 32.7) are mutually consistent with a **24-bit color** image
(24 / 14.3 ≈ 1.68; 24 / 0.7 ≈ 34), so this experiment shares color.
At 100 % load zero packets are accepted — BPP 0, CR undefined (the last
paper point, ~0.7 BPP, is our 1-packet row).
"""

from __future__ import annotations

from ..core.framework import CollaborationFramework
from ..hosts.workload import Trace
from ..media.images import collaboration_scene, to_rgb
from .harness import Claim, ExperimentResult

__all__ = ["run_fig7", "PACKETS_CLAIM"]

#: CPU-load levels visited (percent), the paper's x-axis
CPU_LEVELS = (30, 40, 50, 60, 70, 80, 90, 95, 100)
#: side of the shared (color) test image
IMAGE_SIZE = 64
#: full-quality rate of the coder; 14.3 matches the paper's top BPP
TARGET_BPP = 14.3


def _packets_fall_to_zero(rows) -> bool:
    packets = [row["packets"] for row in rows]
    return packets[0] == 16 and packets[-1] == 0 and packets == sorted(packets, reverse=True)


PACKETS_CLAIM = Claim("paper: packets 16->0 over CPU load 30->100%", _packets_fall_to_zero)


def run_fig7() -> ExperimentResult:
    """Run the CPU-load sweep with a color image; one row per level of
    :data:`CPU_LEVELS`."""
    result = ExperimentResult(
        "FIG7",
        "image viewer parameters vs CPU load (color image)",
        columns=("cpu_load", "packets", "bpp", "compression_ratio", "psnr_db"),
        claims=[PACKETS_CLAIM],
    )
    fw = CollaborationFramework("fig7", objective="cpu-load adaptation sweep", seed=0)
    sender = fw.add_wired_client("sender", image_target_bpp=TARGET_BPP)
    viewer = fw.add_wired_client(
        "viewer",
        cpu_workload=Trace(CPU_LEVELS),
        image_target_bpp=TARGET_BPP,
    )
    sender.join()
    viewer.join()
    fw.run_for(0.5)
    image = to_rgb(collaboration_scene(IMAGE_SIZE, IMAGE_SIZE, seed=11))

    for step, level in enumerate(CPU_LEVELS):
        fw.hosts["viewer"].advance_to_tick(step)
        decision = viewer.monitor_and_adapt()
        image_id = f"img-cpu-{step}"
        sender.share_image(image_id, image)
        fw.run_for(3.0)
        view = viewer.viewer.viewed[image_id]
        view.original = image
        report = view.report()
        result.add_row(
            cpu_load=level,
            packets=report.packets_used,
            bpp=report.bpp,
            compression_ratio=(
                report.compression_ratio if report.packets_used > 0 else None
            ),
            psnr_db=report.psnr_db if report.packets_used > 0 else None,
        )
        assert report.packets_used == decision.packets

    result.note("the paper's anchors: BPP 14.3->0.7; CR 1.6->32.7 (24-bit color baseline)")
    return result
