"""Tests for the packet tracer."""

from unittest import mock

import pytest

from repro.network import trace
from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup, MulticastSocket
from repro.network.routing import MulticastFabric
from repro.network.simnet import Network, Packet
from repro.network.trace import PacketTracer


@pytest.fixture
def fabric():
    sched = Scheduler()
    net = Network(sched, seed=4)
    for n in ("a", "b", "c"):
        net.add_node(n)
    net.add_link("a", "b", latency=0.001)
    net.add_link("b", "c", latency=0.001, loss=0.5)
    return sched, net


class TestTracing:
    def test_records_and_totals(self, fabric):
        _, net = fabric
        tracer = PacketTracer(net)
        tracer.attach()
        net.send(Packet("a", 1, "b", 9, b"hello"))
        net.send(Packet("a", 1, "b", 9, b"world!!"))
        assert tracer.total_packets == 2
        assert len(tracer.records) == 2
        assert tracer.records[0].size == 5 + 28
        assert tracer.records[0].delivered

    def test_drops_recorded(self, fabric):
        _, net = fabric
        tracer = PacketTracer(net)
        tracer.attach()
        for _ in range(100):
            net.send(Packet("a", 1, "c", 9, b"x"))
        flow = tracer.flows[("a", "c", 9)]
        assert flow.packets == 100
        assert 20 <= flow.dropped <= 80
        assert flow.delivered == 100 - flow.dropped

    def test_attach_idempotent(self, fabric):
        _, net = fabric
        tracer = PacketTracer(net)
        tracer.attach()
        tracer.attach()
        net.send(Packet("a", 1, "b", 9, b"x"))
        assert tracer.total_packets == 1  # not double-counted

    def test_capacity_bounds_records_not_flows(self, fabric):
        _, net = fabric
        tracer = PacketTracer(net)
        tracer.attach()
        with mock.patch.object(trace, "TRACE_CAPACITY", 3):
            for _ in range(10):
                net.send(Packet("a", 1, "b", 9, b"x"))
        assert len(tracer.records) == 3
        assert tracer.flows[("a", "b", 9)].packets == 10

    def test_flow_times(self, fabric):
        sched, net = fabric
        tracer = PacketTracer(net)
        tracer.attach()
        net.send(Packet("a", 1, "b", 9, b"x"))
        sched.run_until(5.0)
        net.send(Packet("a", 1, "b", 9, b"y"))
        flow = tracer.flows[("a", "b", 9)]
        assert flow.first_time == 0.0
        assert flow.last_time == 5.0


class TestTreeCastTracing:
    """A fabric-backed group never calls ``Network.send``; the tracer
    hangs off the shared delivery primitive, so it sees casts too."""

    @pytest.fixture
    def group_world(self):
        sched = Scheduler()
        net = Network(sched, seed=4)
        fab = MulticastFabric(net)
        fab.add_domain("core")
        fab.add_router("r0", "core", latency=0.0005)
        fab.add_router("r1", "core", parent="r0", latency=0.0005)
        hosts = ["h0", "h1", "h2", "h3"]
        for i, host in enumerate(hosts):
            fab.attach_host(host, f"r{i % 2}", latency=0.0002)
        group = MulticastGroup(net, "239.4.4.4", 5000, fabric=fab)
        socks = {h: MulticastSocket(net, h, group) for h in hosts}
        tracer = PacketTracer(net)
        tracer.attach()
        return sched, net, socks, tracer

    def test_one_record_per_member(self, group_world):
        sched, net, socks, tracer = group_world
        assert socks["h0"].send(b"frame") == 3
        sched.run()
        assert sorted((r.src, r.dst, r.dst_port) for r in tracer.records) == [
            ("h0", h, socks[h].local_port) for h in ("h1", "h2", "h3")
        ]
        assert all(r.delivered and r.size == 5 + 28 for r in tracer.records)
        assert tracer.total_packets == net.packets_sent == 3
        assert set(tracer.flows) == {
            ("h0", h, socks[h].local_port) for h in ("h1", "h2", "h3")
        }

    def test_target_behind_down_access_link_recorded_dropped(self, group_world):
        sched, net, socks, tracer = group_world
        net.set_link_up("h3", "r1", False)
        assert socks["h0"].send(b"frame") == 2
        sched.run()
        by_dst = {r.dst: r.delivered for r in tracer.records}
        assert by_dst == {"h1": True, "h2": True, "h3": False}
        assert tracer.flows[("h0", "h3", socks["h3"].local_port)].dropped == 1
        assert net.packets_dropped == 1


class TestAnalysis:
    def test_summary_renders(self, fabric):
        _, net = fabric
        tracer = PacketTracer(net)
        tracer.attach()
        net.send(Packet("a", 1, "b", 9, b"x"))
        text = tracer.summary()
        assert "1 packets" in text and "a -> b:9" in text

    def test_whole_deployment_trace(self):
        """Tracer composes with the full framework."""
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("traced")
        tracer = PacketTracer(fw.network)
        tracer.attach()
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        a.send_chat("hello")
        fw.run_for(1.0)
        assert tracer.total_packets >= 3  # joins + chat
        assert {"alice", "bob"} <= {src for src, _, _ in tracer.flows}
