"""Failure injection: partitions, dead agents, crashed peers.

The framework must degrade, not crash: adaptation falls back to the last
known state, the RTP layer abandons torn transfers, sessions survive
peers vanishing.
"""

import pytest

from repro.core.framework import CollaborationFramework
from repro.hosts.workload import Constant, Trace
from repro.media.images import collaboration_scene
from repro.snmp.errors import SnmpTimeout


class TestManagementPlaneFailure:
    def test_healthy_client_has_zeroed_failure_and_trap_telemetry(self):
        a = CollaborationFramework("fi-0").add_wired_client("alice")
        assert a.snmp_failures == 0
        assert a._last_observed == {}
        assert a._trap_listener is None
        a.close()  # no listener was ever enabled
        a.close()

    def test_dead_agent_falls_back_to_last_observation(self):
        fw = CollaborationFramework("fi-1")
        a = fw.add_wired_client("alice", fault_workload=Constant(95.0))
        a.snmp.timeout = 0.05
        a.snmp.retries = 0
        d1 = a.monitor_and_adapt()
        assert d1.packets == 1
        # kill the agent
        fw.agents["alice"].close()
        d2 = a.monitor_and_adapt()
        assert d2.packets == 1  # stale-but-safe decision
        assert a.snmp_failures == 1

    def test_no_prior_observation_full_budget(self):
        fw = CollaborationFramework("fi-2")
        a = fw.add_wired_client("alice")
        a.snmp.timeout = 0.05
        a.snmp.retries = 0
        fw.agents["alice"].close()
        d = a.monitor_and_adapt()
        assert d.packets == 16  # no policy input at all
        assert a.snmp_failures == 1

    def test_agent_recovery_resumes_live_state(self):
        fw = CollaborationFramework("fi-3")
        a = fw.add_wired_client("alice", fault_workload=Trace([30, 100]))
        a.snmp.timeout = 0.05
        a.snmp.retries = 0
        assert a.monitor_and_adapt().packets == 16
        agent = fw.agents["alice"]
        sock = agent._sock
        node = fw.network.node("alice")
        node.unbind(161)  # partition the agent port
        fw.hosts["alice"].advance_to_tick(1)
        assert a.monitor_and_adapt().packets == 16  # stale
        node.bind(161, sock._deliver)  # heal
        assert a.monitor_and_adapt().packets == 1  # live again


class TestNetworkPartition:
    def test_partitioned_peer_misses_traffic_then_catches_up(self):
        fw = CollaborationFramework("fi-4")
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.3)
        fw.network.remove_link("bob", "lan-switch")
        a.send_chat("during partition")
        fw.run_for(1.0)
        assert b.chat.transcript == []
        fw.network.add_link("bob", "lan-switch", bandwidth=12_500_000.0, latency=0.0005)
        fw.run_for(0.5)
        b.request_history()
        fw.run_for(1.0)
        assert "alice: during partition" in b.chat.transcript

    def test_image_transfer_across_flapping_link(self):
        fw = CollaborationFramework("fi-5", seed=11)
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob", link_kwargs={"loss": 0.3})
        a.join()
        b.join()
        fw.run_for(0.3)
        img = collaboration_scene(64, 64)
        a.share_image("map", img)
        fw.run_for(3.0)
        # catch up from the session history until complete (bounded): the
        # request and the replays cross the lossy link too
        for _ in range(10):
            view = b.viewer.viewed.get("map")
            if view is not None and view.assembly.usable_prefix == 16:
                break
            b.request_history()
            fw.run_for(1.0)
        assert "map" in b.viewer.viewed
        assert b.viewer.viewed["map"].assembly.usable_prefix == 16


class TestPeerCrash:
    def test_session_survives_peer_vanishing(self):
        fw = CollaborationFramework("fi-6")
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        c = fw.add_wired_client("carol")
        for x in (a, b, c):
            x.join()
        fw.run_for(0.3)
        # carol crashes without a LeaveEvent
        c.close()
        a.send_chat("anyone there?")
        fw.run_for(1.0)
        assert "alice: anyone there?" in b.chat.transcript
        # membership still lists carol (no failure detector — honest)
        assert "carol" in a.membership.members

    def test_close_idempotent_and_releases_ports(self):
        fw = CollaborationFramework("fi-7")
        a = fw.add_wired_client("alice")
        a.enable_trap_listener()
        a.close()
        a.close()
        # port 162 reusable after close
        from repro.network.udp import DatagramSocket

        s = DatagramSocket(fw.network, "alice")
        s.bind(162)

    def test_base_station_detach_stops_forwarding(self):
        fw = CollaborationFramework("fi-8")
        wired = fw.add_wired_client("wired")
        bs = fw.add_base_station("bs")
        w = fw.add_wireless_client("w", bs, distance=40.0)
        wired.join()
        bs.evaluate_qos()
        bs.detach("w")  # radio association lost
        wired.send_chat("hello?")
        fw.run_for(1.0)
        assert w.received_events == []
