"""Integration tests: wired clients collaborating over the full stack."""

import numpy as np
import pytest

from repro.core.contracts import Constraint, QoSContract
from repro.core.events import WhiteboardEvent
from repro.core.framework import CollaborationFramework
from repro.hosts.workload import Constant, Trace
from repro.media.images import collaboration_scene


@pytest.fixture
def fw():
    framework = CollaborationFramework("itest", objective="integration")
    return framework


def two_clients(fw, **viewer_kwargs):
    a = fw.add_wired_client("alice")
    b = fw.add_wired_client("bob", **viewer_kwargs)
    a.join()
    b.join()
    fw.run_for(0.5)
    return a, b


class TestChat:
    def test_chat_replication(self, fw):
        a, b = two_clients(fw)
        a.send_chat("hello")
        b.send_chat("hi back")
        fw.run_for(1.0)
        # peers are loosely coupled: both lines reach both transcripts,
        # but local echo means per-client ordering may differ.
        assert sorted(a.chat.transcript) == ["alice: hello", "bob: hi back"]
        assert sorted(b.chat.transcript) == ["alice: hello", "bob: hi back"]

    def test_chat_from_single_sender_ordered(self, fw):
        a, b = two_clients(fw)
        for i in range(5):
            a.send_chat(f"line {i}")
        fw.run_for(1.0)
        assert b.chat.transcript == [f"alice: line {i}" for i in range(5)]

    def test_membership_tracked(self, fw):
        a, b = two_clients(fw)
        assert a.membership.members == ["alice", "bob"]
        c = fw.add_wired_client("carol")
        c.join()
        fw.run_for(0.5)
        assert a.membership.members == ["alice", "bob", "carol"]
        # late joiner doesn't know history but sees the session from now on
        a.send_chat("welcome")
        fw.run_for(0.5)
        assert c.chat.transcript == ["alice: welcome"]

    def test_leave_updates_membership(self, fw):
        a, b = two_clients(fw)
        b.leave()
        fw.run_for(0.5)
        assert a.membership.members == ["alice"]

    def test_second_leave_is_a_no_op(self, fw):
        a, b = two_clients(fw)
        b.leave()
        sent = b.endpoint.sent_messages
        b.leave()
        fw.run_for(0.5)
        assert b.endpoint.sent_messages == sent
        assert a.membership.leaves == 1

    def test_chat_after_leave_is_refused_before_rendering(self, fw):
        a, b = two_clients(fw)
        b.leave()
        with pytest.raises(RuntimeError, match="endpoint is closed"):
            b.send_chat("still here?")
        fw.run_for(0.5)
        assert b.chat.transcript == []
        assert a.chat.transcript == []


class TestWhiteboard:
    def test_stroke_replication(self, fw):
        a, b = two_clients(fw)
        a.draw("stroke-1", (0.0, 0.0, 10.0, 10.0))
        fw.run_for(0.5)
        assert b.whiteboard.objects() == {"stroke-1": [0.0, 0.0, 10.0, 10.0]}

    def test_erase_replication(self, fw):
        a, b = two_clients(fw)
        a.draw("s", (1.0, 2.0))
        fw.run_for(0.5)
        b._publish_event(
            WhiteboardEvent(object_id="s", op="erase", author="bob", version=2, timestamp=0.5)
        )
        fw.run_for(0.5)
        assert a.whiteboard.objects() == {}

    def test_concurrent_draw_converges(self, fw):
        """Both replicas pick the same winner; loser kept as conflict."""
        a, b = two_clients(fw)
        a.draw("s", (1.0,))
        b.draw("s", (2.0,))
        fw.run_for(1.0)
        assert a.whiteboard.objects()["s"] == b.whiteboard.objects()["s"]
        assert a.whiteboard.conflicts + b.whiteboard.conflicts >= 1


class TestImageShare:
    def test_full_quality_delivery(self, fw):
        a, b = two_clients(fw)
        img = collaboration_scene(64, 64)
        a.share_image("map", img)
        fw.run_for(2.0)
        view = b.viewer.viewed["map"]
        assert view.assembly.usable_prefix == 16
        recon = b.viewer.reconstruct("map")
        from repro.media.metrics import psnr

        assert psnr(img, recon) > 35.0

    def test_budget_gates_reception(self, fw):
        a, b = two_clients(fw)
        b.viewer.set_packet_budget(2)
        a.share_image("map", collaboration_scene(64, 64))
        fw.run_for(2.0)
        assert b.viewer.viewed["map"].assembly.usable_prefix == 2

    def test_text_mode_client_gets_description_not_packets(self, fw):
        a, b = two_clients(fw)
        b.profile.update(modality="text")
        a.share_image("map", collaboration_scene(64, 64))
        fw.run_for(2.0)
        assert "map" not in b.viewer.viewed or b.viewer.viewed["map"].packets_accepted == 0
        assert any("64x64" in line for line in b.chat.transcript)

    def test_session_without_image_support_rejects_share(self):
        fw = CollaborationFramework("noimg", result_space=("chat",))
        a = fw.add_wired_client("alice")
        with pytest.raises(ValueError):
            a.share_image("x", collaboration_scene(64, 64))


class TestAdaptationLoop:
    def test_snmp_observed_state(self, fw):
        a = fw.add_wired_client("alice", cpu_workload=Constant(55.0),
                                fault_workload=Constant(77.0))
        observed = a.read_system_state()
        assert observed["cpu_load"] == 55.0
        assert observed["page_faults"] == 77.0
        assert observed["free_memory_kib"] > 0

    def test_monitor_and_adapt_sets_budget(self, fw):
        a = fw.add_wired_client("alice", fault_workload=Constant(95.0))
        d = a.monitor_and_adapt()
        assert d.packets == 1
        assert a.viewer.packet_budget == 1
        assert a.last_decision is d
        assert len(a.decision_log) == 1

    def test_adaptation_follows_workload(self, fw):
        a = fw.add_wired_client("alice", fault_workload=Trace([30, 60, 100]))
        budgets = []
        for tick in range(3):
            fw.hosts["alice"].advance_to_tick(tick)
            budgets.append(a.monitor_and_adapt().packets)
        assert budgets == [16, 4, 1]

    def test_periodic_loop_runs(self, fw):
        a = fw.add_wired_client("alice", fault_workload=Constant(50.0))
        a.start_adaptation_loop(interval=1.0)
        fw.run_for(3.5)
        assert len(a.decision_log) >= 3

    def test_close_stops_periodic_loop(self, fw):
        a = fw.add_wired_client("alice", fault_workload=Constant(50.0))
        a.start_adaptation_loop(interval=1.0)
        fw.run_for(2.5)
        a.close()
        logged = len(a.decision_log)
        fw.run_for(3.0)  # a tick on the closed sockets would raise here
        assert len(a.decision_log) == logged

    def test_restarted_loop_replaces_the_running_one(self, fw):
        a = fw.add_wired_client("alice", fault_workload=Constant(50.0))
        a.start_adaptation_loop(interval=1.0)
        fw.run_for(0.5)
        a.start_adaptation_loop(interval=1.0)
        fw.run_for(3.0)  # one tick a second from 1.5 s on, not two chains
        assert [t for t, _ in a.decision_log] == [1.5, 2.5, 3.5]
        a.close()
        fw.run_for(3.0)  # an orphaned chain would raise "socket is closed" here
        assert len(a.decision_log) == 3

    def test_contract_respected_in_loop(self, fw):
        contract = QoSContract("floor", [Constraint("packets", minimum=4)])
        a = fw.add_wired_client(
            "alice", fault_workload=Constant(100.0), contract=contract
        )
        assert a.monitor_and_adapt().packets == 4


class TestProfileDynamics:
    def test_interest_narrowing_is_local_and_immediate(self, fw):
        a, b = two_clients(fw)
        b.profile.set_interest("kind != 'chat'")
        a.send_chat("noise")
        fw.run_for(0.5)
        assert b.chat.transcript == []
