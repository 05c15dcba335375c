"""FIG8 — Two wireless clients, varying distance.

Paper Sec. 6.3.1: client A moves from 100 m in to 50 m (x-axis points
0–3) and back out (points 3–5) at constant transmit power; client B holds
position.  The base station recomputes each client's SIR (Eq. 1) at every
point and selects the modality tier it will forward for that client
(text / text+sketch / full image, image threshold 4 dB).

Physics to expect: as A approaches, A's own SIR improves (stronger
received signal) while B's SIR *degrades* (A's signal is B's
interference) — and vice versa on the way back out.  The BS tier for each
client tracks its SIR across the thresholds.
"""

from __future__ import annotations

from typing import Optional

from ..core.framework import CollaborationFramework
from ..wireless.channel import NoiseModel, PathLossModel
from ..wireless.mobility import approach_and_retreat
from .harness import ExperimentResult

__all__ = ["run_fig8", "main", "build_two_client_cell"]


def build_two_client_cell(
    seed: int = 0,
    d_a: float = 100.0,
    d_b: float = 80.0,
    power: float = 1.0,
):
    """The FIG8/FIG9 testbed: BS + two wireless clients + a wired peer."""
    fw = CollaborationFramework("fig8", objective="wireless distance sweep", seed=seed)
    wired = fw.add_wired_client("wired")
    bs = fw.add_base_station(
        "bs",
        pathloss=PathLossModel(alpha=4.0, k=1e6),
        noise=NoiseModel(reference_power=1.0, snr_ref_db=40.0),
    )
    a = fw.add_wireless_client("client-a", bs, distance=d_a, tx_power=power)
    b = fw.add_wireless_client("client-b", bs, distance=d_b, tx_power=power)
    wired.join()
    fw.run_for(0.5)
    return fw, bs, a, b, wired


def run_fig8(
    far: float = 100.0,
    near: float = 50.0,
    d_b: float = 80.0,
    power: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Distance sweep: A 100→50→100 m, B fixed, constant powers."""
    result = ExperimentResult(
        "FIG8",
        "2 wireless clients, varying distance of A",
        columns=(
            "step",
            "distance_a",
            "distance_b",
            "sir_a_db",
            "sir_b_db",
            "tier_a",
            "tier_b",
        ),
    )
    fw, bs, a, b, _wired = build_two_client_cell(seed=seed, d_a=far, d_b=d_b, power=power)
    trace = approach_and_retreat(far=far, near=near, in_steps=3, out_steps=2)
    for step, distance in enumerate(trace):
        a.move_to(distance)          # client reports its new position...
        fw.run_for(0.5)              # ...the control event reaches the BS
        snap = bs.evaluate_qos()     # BS periodically recalculates SIR
        sir_a, tier_a = snap.for_client("client-a")
        sir_b, tier_b = snap.for_client("client-b")
        result.add_row(
            step=step,
            distance_a=distance,
            distance_b=d_b,
            sir_a_db=sir_a,
            sir_b_db=sir_b,
            tier_a=tier_a.name,
            tier_b=tier_b.name,
        )
    result.note(
        "paper: reducing A's distance (points 0-3) changes SIRs considerably;"
        " tiers follow thresholds (image >= 4 dB)"
    )
    return result


def run_fig8_dataflow(
    far: float = 100.0,
    near: float = 50.0,
    d_b: float = 80.0,
    power: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """FIG8's narrative as actual data flow: A shares an image at every
    mobility step and the table records which *modality* the BS let
    through to the session.

    "If a text file is transmitted in a single packet, then BS forwards
    the same on reception ... If the BS receives the base image packet at
    SIR above threshold for image, it will send out the image packets
    too.  Consequently, even in a low throughput network condition, the
    BS is able to send certain modality of information from a wireless
    client to the collaboration network."
    """
    from ..apps.imageviewer import ImageViewer
    from ..media.images import collaboration_scene
    from ..wireless.mobility import approach_and_retreat

    result = ExperimentResult(
        "FIG8b",
        "uplink modality vs distance (A shares an image at each step)",
        columns=(
            "step",
            "distance_a",
            "sir_a_db",
            "tier_a",
            "session_got_packets",
            "session_got_text",
        ),
    )
    fw, bs, a, _b, wired = build_two_client_cell(seed=seed, d_a=far, d_b=d_b, power=power)
    image = collaboration_scene(64, 64, seed=seed + 3)
    camera = ImageViewer("client-a")
    trace = approach_and_retreat(far=far, near=near, in_steps=3, out_steps=2)

    for step, distance in enumerate(trace):
        a.move_to(distance)
        fw.run_for(0.5)
        snap = bs.evaluate_qos()
        sir_a, tier_a = snap.for_client("client-a")
        viewed_before = len(wired.viewer.viewed)
        texts_before = len(wired.chat.lines)
        image_id = f"field-{step}"
        announce, packets = camera.share(image_id, image)
        a.send_event(announce)
        for p in packets:
            a.send_event(p)
        fw.run_for(3.0)
        got_packets = (
            image_id in wired.viewer.viewed
            and wired.viewer.viewed[image_id].assembly.usable_prefix > 0
        )
        got_text = len(wired.chat.lines) > texts_before
        result.add_row(
            step=step,
            distance_a=distance,
            sir_a_db=sir_a,
            tier_a=tier_a.name,
            session_got_packets=got_packets,
            session_got_text=got_text,
        )
        assert got_packets or got_text or tier_a.name == "NOTHING"
    result.note(
        "paper Sec 6.3.1: 'even in a low throughput network condition, the"
        " BS is able to send certain modality of information'"
    )
    return result


def main() -> ExperimentResult:  # pragma: no cover - exercised via bench
    res = run_fig8()
    print(res.format_table())
    res2 = run_fig8_dataflow()
    print(res2.format_table())
    return res


if __name__ == "__main__":  # pragma: no cover
    main()
