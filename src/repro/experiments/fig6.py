"""FIG6 — Image-viewer parameters versus host page faults.

Paper Sec. 6.1: a wired client's host sweeps page faults 30 → 100; the
inference engine (reading the SNMP extension agent) sets the image-packet
budget, which "varies from 1 to 16 in powers of 2".  As packets fall, the
compression ratio rises (≈3.6 → 131 reported) and BPP falls (≈2.1 → 0.1).

This reproduction runs the *entire* stack per sweep point: workload →
simulated host → SNMP agent → SNMP manager → inference engine → packet
budget → multicast image share → progressive reconstruction → metrics.
"""

from __future__ import annotations

from ..core.framework import CollaborationFramework
from ..hosts.workload import Trace
from ..media.images import collaboration_scene
from .harness import Claim, ExperimentResult

__all__ = ["run_fig6", "PACKETS_CLAIM"]

#: page-fault levels visited: 30..100 in steps of 10, the paper's x-axis
FAULT_LEVELS = (30, 40, 50, 60, 70, 80, 90, 100)
#: side of the shared (grayscale) test image
IMAGE_SIZE = 64
#: full-quality rate of the coder; 2.2 matches the paper's top BPP
TARGET_BPP = 2.2


def _packets_halve_to_one(rows) -> bool:
    packets = [row["packets"] for row in rows]
    ladder = all(bin(p).count("1") == 1 for p in packets)
    return ladder and packets[0] == 16 and packets[-1] == 1 and packets == sorted(packets, reverse=True)


PACKETS_CLAIM = Claim("paper: packets 16->1 (powers of 2) over page faults 30->100", _packets_halve_to_one)


def run_fig6() -> ExperimentResult:
    """Run the page-fault sweep; one row per level of :data:`FAULT_LEVELS`."""
    result = ExperimentResult(
        "FIG6",
        "image viewer parameters vs page faults",
        columns=("page_faults", "packets", "bpp", "compression_ratio", "psnr_db"),
        claims=[PACKETS_CLAIM],
    )
    fw = CollaborationFramework("fig6", objective="page-fault adaptation sweep", seed=0)
    sender = fw.add_wired_client("sender", image_target_bpp=TARGET_BPP)
    viewer = fw.add_wired_client(
        "viewer",
        fault_workload=Trace(FAULT_LEVELS),
        image_target_bpp=TARGET_BPP,
    )
    sender.join()
    viewer.join()
    fw.run_for(0.5)
    image = collaboration_scene(IMAGE_SIZE, IMAGE_SIZE, seed=7)

    for step, level in enumerate(FAULT_LEVELS):
        fw.hosts["viewer"].advance_to_tick(step)
        decision = viewer.monitor_and_adapt()  # SNMP → inference → budget
        image_id = f"img-pf-{step}"
        sender.share_image(image_id, image)
        fw.run_for(2.0)
        view = viewer.viewer.viewed[image_id]
        view.original = image
        report = view.report()
        result.add_row(
            page_faults=level,
            packets=report.packets_used,
            bpp=report.bpp,
            compression_ratio=report.compression_ratio,
            psnr_db=report.psnr_db,
        )
        assert report.packets_used == decision.packets, "budget must gate reception"

    result.note("the paper's anchors: CR rises ~3.6->131; BPP falls ~2.1->0.1")
    return result
