#!/usr/bin/env python
"""Medical telediagnosis: QoS contracts and modality transformation.

A radiologist's workstation must never fall below a contracted image
quality; a ward terminal takes no images, only text; a consultant dials
in on a speech-only channel.  The same shared scan reaches all three,
each in the modality and quality its profile and contract allow — "each
of the users may access the same visual information but at different
resolutions or using different modalities" (paper Sec. 5.4).  The ward
terminal's interest refuses image content, but its profile owns an
image→text transformer, so the scan arrives as *accept with
transformation* (paper Fig. 3) and is rendered as its text description.
The consultant's speech is two transformer modules called in turn:
``describe_image`` then ``text_to_speech``.

Run:  python examples/telediagnosis.py
"""

from repro import ClientProfile, CollaborationFramework, TransformRule
from repro.core.contracts import Constraint, QoSContract
from repro.core.events import ImageShareAnnounce, ImagePacketEvent
from repro.core.matching import Decision
from repro.hosts.workload import Trace
from repro.media.describe import describe_image
from repro.media.images import collaboration_scene, to_rgb
from repro.media.speech import speech_to_text, text_to_speech


def main() -> None:
    fw = CollaborationFramework(
        "telediagnosis", objective="review patient 1142's scan"
    )

    # the radiologist contracts a minimum of 8 packets regardless of load
    radiologist = fw.add_wired_client(
        "radiologist",
        contract=QoSContract("diagnostic-floor", [Constraint("packets", minimum=8)]),
        fault_workload=Trace([30, 95]),   # the workstation will start paging
        image_target_bpp=14.3,
    )
    ward = fw.add_wired_client(
        "ward-terminal",
        profile=ClientProfile(
            "ward-terminal",
            {"session": "telediagnosis", "role": "nurse", "client_id": "ward-terminal"},
            interest="not (modality == 'image')",
            transforms=[TransformRule("modality", "image", "text")],
        ),
    )
    # note how each delivery to the ward terminal was interpreted
    decisions = {}
    deliver = ward.endpoint.on_delivery

    def interpreted(delivery):
        decisions.setdefault(delivery.message.kind, delivery.result.decision)
        deliver(delivery)

    ward.endpoint.on_delivery = interpreted
    archive = fw.add_wired_client("pacs-archive", image_target_bpp=14.3)
    for c in (radiologist, ward, archive):
        c.join()
    fw.run_for(0.5)

    scan = to_rgb(collaboration_scene(64, 64, seed=1142))

    # --- calm host: full-quality color delivery ---------------------------
    d = radiologist.monitor_and_adapt()
    print(f"calm workstation: inference grants {d.packets} packets")
    archive.share_image("scan-1142", scan)
    fw.run_for(3.0)
    view = radiologist.viewer.viewed["scan-1142"]
    view.original = scan
    r = view.report()
    print(f"  radiologist: {r.packets_used} packets, bpp={r.bpp:.1f}, "
          f"psnr={r.psnr_db:.1f} dB")

    # the ward terminal followed along in text
    print(f"  ward terminal transcript: {ward.chat.transcript}")
    taken = {decisions[kind] for kind in (ImageShareAnnounce.kind, ImagePacketEvent.kind)}
    scan_view = ward.viewer.viewed["scan-1142"]
    assert taken == {Decision.ACCEPT_WITH_TRANSFORM}
    assert ward.chat.transcript == [f"[scan-1142]: {scan_view.announce.description}"]
    assert scan_view.assembly.usable_prefix == 0
    print(f"  ward terminal: the scan was {Decision.ACCEPT_WITH_TRANSFORM.value} (image -> text),"
          f" {scan_view.assembly.usable_prefix} image packets decoded")

    # --- thrashing host: policy says 1 packet, the CONTRACT floors it at 8
    fw.hosts["radiologist"].advance_to_tick(1)
    d = radiologist.monitor_and_adapt()
    print(f"\nthrashing workstation: policy wanted fewer, contract floors at "
          f"{d.packets} packets (degraded={d.degraded})")
    for reason in d.reasons:
        print(f"  reason: {reason}")
    archive.share_image("scan-1143", scan)
    fw.run_for(3.0)
    view = radiologist.viewer.viewed["scan-1143"]
    view.original = scan
    r = view.report()
    print(f"  radiologist still gets {r.packets_used} packets, "
          f"psnr={r.psnr_db:.1f} dB — contract honoured")

    # --- the dial-in consultant: image -> text -> synthetic speech --------
    clip = text_to_speech(describe_image(scan).text)
    print(f"\nconsultant's speech channel: {clip.duration:.1f} s of audio")
    print(f"  (recognised back: \"{speech_to_text(clip)[:72]}...\")")


if __name__ == "__main__":
    main()
