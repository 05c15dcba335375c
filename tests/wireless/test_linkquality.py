"""Tests for the SIR → BER → packet-loss model."""

from unittest import mock

import numpy as np
import pytest

from repro.wireless import linkquality
from repro.wireless.linkquality import (
    bit_error_rate,
    loss_for_sir_db,
    packet_loss_probability,
)
from repro.wireless.sir import from_db


class TestBer:
    def test_zero_sir_half(self):
        assert bit_error_rate(0.0) == pytest.approx(0.5)

    def test_monotone_decreasing(self):
        g = np.linspace(0, 40, 100)
        ber = bit_error_rate(g)
        assert np.all(np.diff(ber) < 0)

    def test_high_sir_negligible(self):
        assert bit_error_rate(from_db(20.0)) < 1e-20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_error_rate(-1.0)


class TestPacketLoss:
    def test_longer_packets_lose_more(self):
        gamma = from_db(12.0)
        assert packet_loss_probability(gamma, 16000) > packet_loss_probability(gamma, 800)

    def test_bounds(self):
        assert 0.0 <= packet_loss_probability(from_db(5.0), 8000) <= 1.0
        assert packet_loss_probability(from_db(40.0), 8000) < 1e-6

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            packet_loss_probability(1.0, 0)


class TestCoupledLoss:
    def test_image_threshold_is_workable(self):
        """At the paper's 4 dB image threshold, coded loss is percent-scale."""
        loss = loss_for_sir_db(4.0)
        assert 0.001 < loss < 0.10

    def test_below_sketch_threshold_is_dead(self):
        assert loss_for_sir_db(-6.0) == pytest.approx(0.98)  # hits the cap

    def test_strong_channel_clean(self):
        assert loss_for_sir_db(20.0) < 1e-6

    def test_cap_respected(self):
        with mock.patch.object(linkquality, "LOSS_CAP", 0.9):
            assert loss_for_sir_db(-30.0) == pytest.approx(0.9)

    def test_monotone_in_sir(self):
        sirs = np.linspace(-10, 20, 50)
        losses = loss_for_sir_db(sirs)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_coding_gain_helps(self):
        assert loss_for_sir_db(4.0, coding_gain_db=13.0) < loss_for_sir_db(
            4.0, coding_gain_db=7.0
        )


class TestBasestationCoupling:
    def test_coupling_writes_link_loss(self):
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("couple")
        bs = fw.add_base_station("bs")
        fw.add_wireless_client("near", bs, distance=40.0)
        fw.add_wireless_client("far", bs, distance=110.0)
        bs.couple_channel()
        snap = bs.evaluate_qos()
        near_loss = fw.network.link("bs", "near").loss
        far_loss = fw.network.link("bs", "far").loss
        assert near_loss < far_loss
        assert far_loss == pytest.approx(0.98)

    def test_coupling_updates_on_reevaluation(self):
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("couple2")
        bs = fw.add_base_station("bs")
        w = fw.add_wireless_client("w", bs, distance=100.0)
        fw.add_wireless_client("interferer", bs, distance=60.0)
        bs.couple_channel()
        bs.evaluate_qos()
        loss_far = fw.network.link("bs", "w").loss
        bs.update_attachment("w", distance=30.0)
        bs.evaluate_qos()
        loss_near = fw.network.link("bs", "w").loss
        assert loss_near < loss_far

    def test_coupled_channel_physically_gates_images(self):
        """Below the image tier the radio genuinely cannot complete a
        16-packet transfer — the physical argument for tier gating."""
        from repro.core.events import ChatEvent
        from repro.core.framework import CollaborationFramework
        from repro.core.policies import SirTierPolicy, PolicyDatabase

        fw = CollaborationFramework("couple3", seed=5)
        wired = fw.add_wired_client("wired")
        # disable tier gating entirely: BS forwards everything regardless
        db = PolicyDatabase()
        db.set_sir_policy(SirTierPolicy(image_db=-100.0, sketch_db=-100.0, text_db=-100.0))
        bs = fw.add_base_station("bs", policies=db)
        w = fw.add_wireless_client("w", bs, distance=95.0)
        jam = fw.add_wireless_client("jam", bs, distance=40.0)
        wired.join()
        bs.couple_channel()
        bs.evaluate_qos()
        from repro.media.images import collaboration_scene

        wired.share_image("img", collaboration_scene(64, 64))
        fw.run_for(5.0)
        # with gating off but physics on, the weak client misses fragments
        counts = w.modality_counts()
        assert counts["image_packets"] < 16
