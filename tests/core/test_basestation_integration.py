"""Integration tests: base station + wireless clients (the paper's Sec. 4.2/6.3)."""

from unittest import mock

import numpy as np
import pytest

from repro.core.basestation import MIN_POWER
from repro.core.events import ChatEvent, ImageShareAnnounce, SketchShareEvent, TextShareEvent
from repro.core import policies as policies_module
from repro.core.framework import CollaborationFramework
from repro.core.policies import ModalityTier, PolicyDatabase, SirTierPolicy
from repro.media.images import collaboration_scene
from repro.media.sketch import _rle_encode, extract_sketch
from repro.wireless.channel import NoiseModel, PathLossModel


@pytest.fixture
def cell():
    fw = CollaborationFramework("wtest", objective="wireless integration")
    wired = fw.add_wired_client("wired")
    bs = fw.add_base_station(
        "bs",
        pathloss=PathLossModel(alpha=4.0, k=1e6),
        noise=NoiseModel(reference_power=1.0, snr_ref_db=40.0),
    )
    wired.join()
    fw.run_for(0.2)
    return fw, wired, bs


class TestAttachment:
    def test_attach_detach(self, cell):
        fw, _, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=60.0)
        assert "w1" in bs.attachments
        bs.detach("w1")
        assert "w1" not in bs.attachments

    def test_invalid_attach_params(self, cell):
        fw, _, bs = cell
        with pytest.raises(ValueError):
            bs.attach("bad", ("bad", 1), distance=-5.0, tx_power=1.0)

    def test_channel_report_updates_attachment(self, cell):
        fw, _, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=60.0, tx_power=1.0)
        w.move_to(45.0)
        fw.run_for(0.5)
        assert bs.attachments["w1"].distance == pytest.approx(45.0)
        w.set_power(0.5)
        fw.run_for(0.5)
        assert bs.attachments["w1"].tx_power == pytest.approx(0.5)


class TestSirEvaluation:
    def test_single_client_snr(self, cell):
        fw, _, bs = cell
        fw.add_wireless_client("w1", bs, distance=50.0, tx_power=1.0)
        snap = bs.evaluate_qos()
        # SNR = P*g/sigma2 = 1e6*50^-4 / 1e-4 = 1600 -> 32 dB
        assert snap.sir_db[0] == pytest.approx(32.04, abs=0.1)
        assert snap.tiers[0] is ModalityTier.FULL_IMAGE

    def test_single_client_snr_is_exact(self, cell):
        fw, _, bs = cell
        fw.add_wireless_client("w1", bs, distance=50.0, tx_power=1.0)
        snap = bs.evaluate_qos()
        received = np.array([1.0]) * bs.pathloss.gain(np.array([50.0]))
        assert snap.sir_db[0] == float(10.0 * np.log10(received / bs.noise.sigma2)[0])

    def test_two_clients_interfere(self, cell):
        fw, _, bs = cell
        fw.add_wireless_client("near", bs, distance=50.0)
        fw.add_wireless_client("far", bs, distance=100.0)
        snap = bs.evaluate_qos()
        sir_near, _ = snap.for_client("near")
        sir_far, _ = snap.for_client("far")
        assert sir_near > 0 > sir_far
        assert sir_near == pytest.approx(-sir_far, abs=0.5)  # near-symmetric

    def test_snapshot_history_accumulates(self, cell):
        fw, _, bs = cell
        fw.add_wireless_client("w1", bs, distance=50.0)
        bs.evaluate_qos()
        bs.evaluate_qos()
        assert bs.qos_snapshots == 2

    def test_empty_cell_snapshot(self, cell):
        _, _, bs = cell
        snap = bs.evaluate_qos()
        assert snap.client_ids == ()


class TestDownlinkGating:
    def test_full_tier_gets_image_packets(self, cell):
        fw, wired, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=40.0, tx_power=1.0)
        bs.evaluate_qos()
        wired.share_image("map", collaboration_scene(64, 64))
        fw.run_for(3.0)
        counts = w.modality_counts()
        assert counts["announces"] == 1
        assert counts["image_packets"] == 16

    def test_low_sir_gets_text_only(self, cell):
        fw, wired, bs = cell
        near = fw.add_wireless_client("near", bs, distance=40.0)
        far = fw.add_wireless_client("far", bs, distance=95.0)
        bs.evaluate_qos()
        _, far_tier = bs.last_snapshot.for_client("far")
        assert far_tier in (ModalityTier.TEXT_ONLY, ModalityTier.NOTHING)
        wired.share_image("map", collaboration_scene(64, 64))
        fw.run_for(3.0)
        counts = far.modality_counts()
        assert counts["image_packets"] == 0
        if far_tier is ModalityTier.TEXT_ONLY:
            assert counts["text"] == 1  # the verbal description

    def test_sketch_tier_receives_sketch(self, cell):
        fw, wired, bs = cell
        # geometry chosen so w2 (the nearer client) sits in [0, 4) dB
        fw.add_wireless_client("w1", bs, distance=75.0)
        sk = fw.add_wireless_client("w2", bs, distance=70.0)
        snap = bs.evaluate_qos()
        sir, tier = snap.for_client("w2")
        assert tier is ModalityTier.TEXT_AND_SKETCH
        wired.share_image("map", collaboration_scene(64, 64))
        fw.run_for(3.0)
        counts = sk.modality_counts()
        assert counts["text"] == 1
        assert counts["sketch"] == 1
        assert counts["image_packets"] == 0

    def test_sketch_tier_renders_the_base_stations_sketch(self, cell):
        fw, wired, bs = cell
        fw.add_wireless_client("w1", bs, distance=75.0)
        sk = fw.add_wireless_client("w2", bs, distance=70.0)
        bs.evaluate_qos()
        wired.share_image("map", collaboration_scene(64, 64))
        fw.run_for(3.0)
        expected = extract_sketch(bs.viewer.reconstruct("map"))
        assert list(sk.sketches) == ["map"]
        assert sk.sketches["map"].shape == expected.shape
        assert np.array_equal(sk.sketches["map"], expected.mask)
        assert sk.link.decode_failures == 0

    @pytest.mark.parametrize("h,w", [(1025, 1024), (0, 32)])
    def test_a_sketch_geometry_past_the_cap_is_counted_not_rendered(self, cell, h, w):
        fw, _, bs = cell
        mobile = fw.add_wireless_client("w1", bs, distance=60.0)
        encoded = b"R" + _rle_encode(np.zeros(max(h * w, 1), dtype=bool))
        bs.radio.send(
            SketchShareEvent(ref_id="huge", sketch_h=h, sketch_w=w, encoded=encoded).to_message(
                sender="bs", selector="true"
            ),
            mobile.link.address,
        )
        fw.run_for(1.0)
        assert mobile.sketches == {}
        assert mobile.link.decode_failures == 1

    def test_chat_reaches_all_usable_tiers(self, cell):
        fw, wired, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=80.0)
        bs.evaluate_qos()
        wired.send_chat("status?")
        fw.run_for(1.0)
        kinds = [type(e).__name__ for _, e in w.received_events]
        assert "ChatEvent" in kinds


class TestUplinkGating:
    def test_chat_uplink_reaches_session(self, cell):
        fw, wired, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=50.0)
        w.send_event(ChatEvent(author="w1", text="in the field"))
        fw.run_for(1.0)
        assert "w1: in the field" in wired.chat.transcript

    def test_full_tier_image_uplink_forwarded(self, cell):
        fw, wired, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=40.0)
        bs.evaluate_qos()
        from repro.apps.imageviewer import ImageViewer

        viewer = ImageViewer("w1", n_packets=16, target_bpp=2.2)
        announce, packets = viewer.share("field-img", collaboration_scene(64, 64))
        w.send_event(announce)
        for p in packets:
            w.send_event(p)
        fw.run_for(3.0)
        assert "field-img" in wired.viewer.viewed
        assert wired.viewer.viewed["field-img"].assembly.usable_prefix == 16

    def test_degraded_uplink_sends_description_as_text(self, cell):
        fw, wired, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=80.0)  # low SNR alone? no
        # drag the client down with an interferer
        fw.add_wireless_client("jammer", bs, distance=40.0)
        bs.evaluate_qos()
        _, tier = bs.last_snapshot.for_client("w1")
        assert tier in (ModalityTier.TEXT_ONLY, ModalityTier.TEXT_AND_SKETCH, ModalityTier.NOTHING)
        from repro.apps.imageviewer import ImageViewer

        viewer = ImageViewer("w1")
        announce, packets = viewer.share("field-img", collaboration_scene(64, 64))
        w.send_event(announce)
        fw.run_for(2.0)
        if tier is not ModalityTier.NOTHING:
            # wired peer got a text rendition, not the image
            assert "field-img" not in wired.viewer.viewed
            assert any("field-img" in line for line in wired.chat.transcript)

    def test_unattached_sender_dropped(self, cell):
        fw, wired, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=50.0)
        bs.detach("w1")
        w.send_event(ChatEvent(author="w1", text="ghost"))
        fw.run_for(1.0)
        assert wired.chat.transcript == []


class TestPowerControl:
    def test_overpowered_client_asked_to_reduce(self, cell):
        fw, _, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=30.0, tx_power=4.0)
        requests = bs.apply_power_control()
        fw.run_for(1.0)
        assert len(requests) == 1
        assert requests[0].new_power < 4.0
        # client complied and reported back
        assert w.tx_power == pytest.approx(requests[0].new_power)
        assert bs.attachments["w1"].tx_power == pytest.approx(requests[0].new_power)

    def test_client_at_target_not_asked(self, cell):
        fw, _, bs = cell
        fw.add_wireless_client("w1", bs, distance=90.0, tx_power=1.0)
        fw.add_wireless_client("w2", bs, distance=85.0, tx_power=1.0)
        assert bs.apply_power_control() == []

    def test_client_within_a_tenth_percent_of_its_target_not_asked(self, cell):
        # a strong lone client whose every target clamps to MIN_POWER
        fw, _, bs = cell
        fw.add_wireless_client("w1", bs, distance=10.0, tx_power=0.05004)
        assert bs.apply_power_control() == []
        bs.update_attachment("w1", tx_power=0.0501)  # 0.2 % above the floor
        assert [r.new_power for r in bs.apply_power_control()] == [MIN_POWER]

    def test_noncompliant_client_keeps_power(self, cell):
        fw, _, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=30.0, tx_power=4.0)
        w.comply_with_power_control = False
        bs.apply_power_control()
        fw.run_for(1.0)
        assert w.tx_power == 4.0
        assert w.power_requests == 1

    def test_power_reduction_conserves_battery(self, cell):
        fw, _, bs = cell
        w = fw.add_wireless_client("w1", bs, distance=30.0, tx_power=4.0)
        bs.apply_power_control()
        fw.run_for(1.0)
        drain_before = w.battery
        for _ in range(10):
            w.send_event(ChatEvent(author="w1", text="x"))
        low_power_drain = drain_before - w.battery
        assert low_power_drain < 10 * 0.05 * 4.0  # cheaper than at 4.0 power


def weak_client_cell(gating):
    """One wired sharer, a weak wireless client in the text band (~-5 dB)
    and a strong one at full tier, on a channel coupled to SIR; a 128x128
    share at 4 bpp, so each of the 16 fragments is ~600 B of real data.
    Returns (radio bytes sent toward the weak client, image packets it
    completed, text/sketch renditions it got)."""
    fw = CollaborationFramework("tier-gate", seed=3)
    wired = fw.add_wired_client("wired")
    policies = None
    if not gating:
        ungated = SirTierPolicy(image_db=-100.0, sketch_db=-100.0, text_db=-100.0)
        with mock.patch.object(policies_module, "default_sir_tier_policy", lambda: ungated):
            policies = PolicyDatabase()
    bs = fw.add_base_station("bs", policies=policies)
    weak = fw.add_wireless_client("weak", bs, distance=80.0)
    fw.add_wireless_client("strong", bs, distance=60.0)
    wired.join()
    bs.couple_channel()
    bs.evaluate_qos()
    wired.viewer.target_bpp = 4.0
    wired.share_image("img", collaboration_scene(128, 128))
    fw.run_for(5.0)
    counts = weak.modality_counts()
    return fw.network.link("bs", "weak").tx_octets, counts["image_packets"], counts["text"] + counts["sketch"]


def test_tier_gating_saves_airtime_on_a_dead_channel():
    gated_bytes, _gated_packets, gated_renditions = weak_client_cell(gating=True)
    raw_bytes, raw_packets, _ = weak_client_cell(gating=False)
    # gating cuts the airtime toward the weak client by a large factor ...
    assert gated_bytes * 3 < raw_bytes
    # ... while the client still follows the session via text/sketch
    assert gated_renditions >= 1
    # and the ungated design wasted the air: the dead channel delivered
    # few (usually zero) complete packets anyway
    assert raw_packets < 16
