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

from ..core.framework import CollaborationFramework
from ..core.policies import ModalityTier
from ..wireless.channel import NoiseModel, PathLossModel
from ..wireless.mobility import approach_and_retreat
from .harness import Claim, ExperimentResult

__all__ = ["run_fig8", "build_two_client_cell", "SWING_CLAIM", "TIER_CLAIM", "MODALITY_CLAIM"]

#: client A's far and near distances (m): it walks 100 → 50 → 100
FAR, NEAR = 100.0, 50.0
#: client B's fixed distance (m)
D_B = 80.0
#: both clients' transmit power
POWER = 1.0
#: the paper's SIR threshold for the full image (dB)
IMAGE_DB = 4.0
#: how far (dB) A's SIR must move over the approach to count as "considerably"
SWING_DB = 10.0


def _sir_swings_on_approach(rows) -> bool:
    approach = [row["sir_a_db"] for row in rows[:4]]
    return max(approach) - min(approach) > SWING_DB


def _tiers_follow_thresholds(rows) -> bool:
    by_sir = sorted((row[f"sir_{c}_db"], ModalityTier[row[f"tier_{c}"]]) for row in rows for c in "ab")
    image = all((tier is ModalityTier.FULL_IMAGE) == (sir_db >= IMAGE_DB) for sir_db, tier in by_sir)
    return image and [tier for _sir_db, tier in by_sir] == sorted(tier for _sir_db, tier in by_sir)


def _some_modality_gets_through(rows) -> bool:
    return all(
        row["session_got_packets"] or row["session_got_text"]
        for row in rows
        if row["tier_a"] != "NOTHING"
    )


SWING_CLAIM = Claim(
    f"paper: reducing A's distance (points 0-3) changes SIRs considerably (SIR_A moves > {SWING_DB:g} dB)",
    _sir_swings_on_approach,
)
TIER_CLAIM = Claim(
    f"paper: tiers follow thresholds (a richer tier never at a lower SIR; image >= {IMAGE_DB:g} dB)",
    _tiers_follow_thresholds,
)
MODALITY_CLAIM = Claim(
    "paper Sec 6.3.1: 'even in a low throughput network condition, the"
    " BS is able to send certain modality of information'",
    _some_modality_gets_through,
)


def build_two_client_cell(d_a: float, d_b: float):
    """The FIG8/FIG9 testbed: BS + two wireless clients at ``d_a`` and
    ``d_b`` metres, both at :data:`POWER`, + a wired peer."""
    fw = CollaborationFramework("fig8", objective="wireless distance sweep", seed=0)
    wired = fw.add_wired_client("wired")
    bs = fw.add_base_station(
        "bs",
        pathloss=PathLossModel(alpha=4.0, k=1e6),
        noise=NoiseModel(reference_power=1.0, snr_ref_db=40.0),
    )
    a = fw.add_wireless_client("client-a", bs, distance=d_a, tx_power=POWER)
    b = fw.add_wireless_client("client-b", bs, distance=d_b, tx_power=POWER)
    wired.join()
    fw.run_for(0.5)
    return fw, bs, a, b, wired


def run_fig8() -> ExperimentResult:
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
        claims=[SWING_CLAIM, TIER_CLAIM],
    )
    fw, bs, a, b, _wired = build_two_client_cell(FAR, D_B)
    trace = approach_and_retreat(far=FAR, near=NEAR, in_steps=3, out_steps=2)
    for step, distance in enumerate(trace):
        a.move_to(distance)          # client reports its new position...
        fw.run_for(0.5)              # ...the control event reaches the BS
        snap = bs.evaluate_qos()     # BS periodically recalculates SIR
        sir_a, tier_a = snap.for_client("client-a")
        sir_b, tier_b = snap.for_client("client-b")
        result.add_row(
            step=step,
            distance_a=distance,
            distance_b=D_B,
            sir_a_db=sir_a,
            sir_b_db=sir_b,
            tier_a=tier_a.name,
            tier_b=tier_b.name,
        )
    return result


def run_fig8_dataflow() -> ExperimentResult:
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
        claims=[MODALITY_CLAIM],
    )
    fw, bs, a, _b, wired = build_two_client_cell(FAR, D_B)
    image = collaboration_scene(64, 64, seed=3)
    camera = ImageViewer("client-a")
    trace = approach_and_retreat(far=FAR, near=NEAR, in_steps=3, out_steps=2)

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
    return result
