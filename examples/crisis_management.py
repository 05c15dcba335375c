#!/usr/bin/env python
"""Crisis management: the paper's flagship scenario, end to end.

A command post (wired), a hospital workstation (wired), and two field
responders on wireless devices behind a base station.  Demonstrates:

* profile/interest-based delivery (the hospital only wants medical
  traffic; the command post wants everything);
* BS-side SIR evaluation and modality tiering as a responder moves;
* power control conserving a responder's battery;
* a field image reaching the wired peers, and the degraded-tier
  responder still following along via text descriptions;
* a responder in the sketch band rendering the base sketch the BS
  extracts from a shared map (paper Sec. 5.4).

Run:  python examples/crisis_management.py
"""

import numpy as np

from repro import ClientProfile, CollaborationFramework
from repro.core.events import ChatEvent
from repro.media.images import collaboration_scene
from repro.media.sketch import extract_sketch
from repro.wireless.channel import NoiseModel, PathLossModel


def main() -> None:
    fw = CollaborationFramework(
        "crisis-7", objective="coordinate flood response in sector 7"
    )

    command = fw.add_wired_client(
        "command-post",
        profile=ClientProfile(
            "command-post",
            {"session": "crisis-7", "role": "command", "client_id": "command-post"},
        ),
    )
    hospital = fw.add_wired_client(
        "hospital",
        profile=ClientProfile(
            "hospital",
            {"session": "crisis-7", "role": "medic", "client_id": "hospital"},
            # the hospital's interest: medical traffic and imagery only
            interest="kind in ['image-share', 'image-packet', 'text-share'] or topic == 'medical'",
        ),
    )
    command.join()
    hospital.join()

    bs = fw.add_base_station(
        "base-station",
        pathloss=PathLossModel(alpha=4.0, k=1e6),
        noise=NoiseModel(reference_power=1.0, snr_ref_db=40.0),
    )
    responder1 = fw.add_wireless_client("responder-1", bs, distance=45.0, tx_power=2.0)
    responder2 = fw.add_wireless_client("responder-2", bs, distance=95.0, tx_power=1.0)
    fw.run_for(0.5)

    # --- service assessment on attach (paper Sec. 4.2) -------------------
    snap = bs.evaluate_qos()
    print("initial service assessment:")
    for cid, sir, tier in zip(snap.client_ids, snap.sir_db, snap.tiers):
        print(f"  {cid:12s} SIR {sir:6.1f} dB -> {tier.name}")

    # --- power control: responder-1 is over target ------------------------
    requests = bs.apply_power_control()
    fw.run_for(0.5)
    for req in requests:
        print(f"\npower control: {req.client_id} asked to drop to "
              f"P={req.new_power:.2f} ({req.reason})")
    print(f"responder-1 now transmits at P={responder1.tx_power:.2f} "
          f"(battery {responder1.battery:.1f}%)")

    # --- command post chats; routing follows interests --------------------
    command.send_chat("all units: water level rising at bridge 4")
    fw.run_for(0.5)
    assert hospital.chat.transcript == []
    print(f"\nhospital chat: {hospital.chat.transcript}"
          "  <- empty: its interest admits only medical traffic")
    print(f"responder-1 received {len(responder1.received_events)} event(s) via BS")

    # --- a field image goes up through the base station -------------------
    from repro.apps.imageviewer import ImageViewer

    field_cam = ImageViewer("responder-1", n_packets=16, target_bpp=2.2)
    scene = collaboration_scene(64, 64, seed=99)
    announce, packets = field_cam.share("bridge-4-photo", scene)
    responder1.send_event(announce)
    for p in packets:
        responder1.send_event(p)
    fw.run_for(3.0)

    view = command.viewer.viewed.get("bridge-4-photo")
    if view is not None:
        view.original = scene
        r = view.report()
        print(f"\ncommand post received the field photo: "
              f"{r.packets_used} packets, psnr={r.psnr_db:.1f} dB")

    # --- responder-2 is far out: follows along in degraded modality -------
    counts = responder2.modality_counts()
    print(f"responder-2 (far, {bs.attachments['responder-2'].sir_db:.1f} dB) got: "
          f"{counts['text']} text, {counts['sketch']} sketch, "
          f"{counts['image_packets']} image packets")

    # --- responder-2 drives closer; tier improves --------------------------
    responder2.move_to(50.0)
    fw.run_for(0.5)
    snap = bs.evaluate_qos()
    sir, tier = snap.for_client("responder-2")
    print(f"\nresponder-2 moved to 50 m: SIR {sir:.1f} dB -> {tier.name}")
    command.send_chat("responder-2, send photos when you arrive")
    fw.run_for(0.5)

    # --- responder-2 falls back into the sketch band: text + base sketch ---
    responder2.move_to(58.0)
    fw.run_for(0.5)
    sir, tier = bs.evaluate_qos().for_client("responder-2")
    command.share_image("evac-map", collaboration_scene(64, 64, seed=11))
    fw.run_for(3.0)
    assert "evac-map" in hospital.viewer.viewed  # its interest admits imagery
    sketch = responder2.sketches["evac-map"]
    # what it renders is the sketch the BS extracted from its own replica
    assert np.array_equal(sketch, extract_sketch(bs.viewer.reconstruct("evac-map")).mask)
    print(f"responder-2 at 58 m: SIR {sir:.1f} dB -> {tier.name}; renders the BS's "
          f"{sketch.shape[0]}x{sketch.shape[1]} sketch of the evacuation map "
          f"({int(sketch.sum())} feature pixels)")

    # --- end-of-run telemetry ---------------------------------------------
    from repro.core.telemetry import deployment_report, format_report

    print()
    print(format_report(deployment_report(fw)))


if __name__ == "__main__":
    main()
