"""Tests for the deployment facade and telemetry aggregation."""

import pytest

from repro.core.framework import CollaborationFramework
from repro.core.telemetry import deployment_report, format_report
from repro.media.images import collaboration_scene


class TestFrameworkFacade:
    def test_topology_built(self):
        fw = CollaborationFramework("f")
        fw.add_wired_client("a")
        fw.add_wired_client("b")
        bs = fw.add_base_station("bs")
        fw.add_wireless_client("w", bs)
        # every endpoint has a path to every other through the switch
        assert fw.network.route("a", "b") is not None
        assert fw.network.route("w", "a") is not None
        assert set(fw.hosts) == {"a", "b", "bs"}
        assert set(fw.agents) == {"a", "b", "bs"}

    def test_duplicate_client_name_rejected(self):
        fw = CollaborationFramework("f")
        fw.add_wired_client("a")
        with pytest.raises(Exception):
            fw.add_wired_client("a")

    def test_custom_link_kwargs(self):
        fw = CollaborationFramework("f")
        fw.add_wired_client("slow", link_kwargs={"bandwidth": 1000.0, "loss": 0.1})
        link = fw.network.link("slow", "lan-switch")
        assert link.bandwidth == 1000.0
        assert link.loss == 0.1

    def test_run_advances_time(self):
        fw = CollaborationFramework("f")
        fw.run_for(3.5)
        assert fw.now == 3.5


class TestLateJoinImageReplay:
    def test_late_joiner_reconstructs_replayed_image(self):
        fw = CollaborationFramework("h-img")
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.3)
        img = collaboration_scene(64, 64)
        a.share_image("old-map", img)
        fw.run_for(2.0)

        late = fw.add_wired_client("late")
        late.join()
        fw.run_for(0.3)
        late.request_history()
        fw.run_for(3.0)
        view = late.viewer.viewed.get("old-map")
        assert view is not None
        assert view.assembly.usable_prefix >= 16 or view.assembly.received >= 16
        from repro.media.metrics import psnr

        assert psnr(img, late.viewer.reconstruct("old-map")) > 35.0


class TestTelemetry:
    @pytest.fixture
    def busy_deployment(self):
        fw = CollaborationFramework("telem")
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        bs = fw.add_base_station("bs")
        w = fw.add_wireless_client("w", bs, distance=50.0)
        a.join()
        b.join()
        fw.run_for(0.3)
        a.send_chat("hi")
        a.draw("s", (1.0,))
        bs.evaluate_qos()
        a.share_image("img", collaboration_scene(64, 64))
        b.monitor_and_adapt()
        fw.run_for(2.0)
        return fw

    def test_report_structure(self, busy_deployment):
        report = deployment_report(busy_deployment)
        assert set(report["wired_clients"]) == {"alice", "bob"}
        assert set(report["wireless_clients"]) == {"w"}
        assert set(report["base_stations"]) == {"bs"}
        bob = report["wired_clients"]["bob"]
        assert bob["chat_lines"] == 1
        assert bob["whiteboard_objects"] == 1
        assert bob["images_viewed"] == 1
        assert bob["decisions"] == 1
        assert bob["snmp_requests"] >= 1
        alice = report["wired_clients"]["alice"]
        assert alice["images_shared"] == 1
        assert alice["sent_messages"] >= 18  # join + chat + draw + announce + 16 pkts

    def test_wireless_and_bs_sections(self, busy_deployment):
        report = deployment_report(busy_deployment)
        w = report["wireless_clients"]["w"]
        assert w["distance_m"] == 50.0
        assert w["image_packets"] == 16
        bs = report["base_stations"]["bs"]
        assert bs["attached"] == ["w"]
        assert "w" in bs["last_tiers"]

    def test_format_renders(self, busy_deployment):
        text = format_report(deployment_report(busy_deployment))
        assert "session 'telem'" in text
        assert "alice" in text and "bs" in text and "last_tiers" in text
