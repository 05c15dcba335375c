"""Tests for the simulated packet network."""

import numpy as np
import pytest

from repro.network import simnet
from repro.network.clock import Scheduler
from repro.network.simnet import (
    CastPlan,
    Link,
    Network,
    NetworkError,
    Packet,
)


@pytest.fixture
def net():
    sched = Scheduler()
    network = Network(sched, seed=42)
    for name in ("a", "b", "c", "d"):
        network.add_node(name)
    network.add_link("a", "b", latency=0.001, bandwidth=1e6)
    network.add_link("b", "c", latency=0.002, bandwidth=1e6)
    network.add_link("a", "d", latency=0.010, bandwidth=1e6)
    network.add_link("d", "c", latency=0.010, bandwidth=1e6)
    return network


class TestTopology:
    def test_duplicate_node_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_node("a")

    def test_link_requires_existing_nodes(self, net):
        with pytest.raises(NetworkError):
            net.add_link("a", "zzz")

    def test_self_link_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_link("a", "a")

    def test_duplicate_link_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_link("b", "a")  # same link, reversed endpoints

    def test_nodes_sorted(self, net):
        assert net.nodes == ["a", "b", "c", "d"]

    def test_link_lookup_symmetric(self, net):
        assert net.link("a", "b") is net.link("b", "a")

    def test_remove_link(self, net):
        net.remove_link("a", "b")
        with pytest.raises(NetworkError):
            net.link("a", "b")

    def test_link_validation(self):
        with pytest.raises(NetworkError):
            Link("x", "y", bandwidth=0)
        with pytest.raises(NetworkError):
            Link("x", "y", latency=-1)
        with pytest.raises(NetworkError):
            Link("x", "y", loss=1.0)

    def test_link_other(self, net):
        link = net.link("a", "b")
        assert link.other("a") == "b"
        assert link.other("b") == "a"
        with pytest.raises(NetworkError):
            link.other("c")


class TestRouting:
    def test_shortest_latency_path_chosen(self, net):
        path = net.route("a", "c")
        # a-b-c costs 3 ms, a-d-c costs 20 ms
        assert [frozenset((l.a, l.b)) for l in path] == [
            frozenset(("a", "b")),
            frozenset(("b", "c")),
        ]

    def test_self_route_is_empty(self, net):
        assert net.route("a", "a") == []

    def test_unroutable_returns_none(self, net):
        net.add_node("island")
        assert net.route("a", "island") is None

    def test_route_cache_invalidated_on_topology_change(self, net):
        assert len(net.route("a", "c")) == 2
        net.remove_link("a", "b")
        path = net.route("a", "c")
        assert [frozenset((l.a, l.b)) for l in path] == [
            frozenset(("a", "d")),
            frozenset(("d", "c")),
        ]

    def test_path_latency(self, net):
        assert net.path_latency("a", "c") == pytest.approx(0.003)

    def test_path_bandwidth_bottleneck(self, net):
        net.link("b", "c").bandwidth = 5e5
        net._route_cache.clear()
        assert net.path_bandwidth("a", "c") == 5e5


class TestDelivery:
    def test_end_to_end_delivery(self, net):
        got = []
        net.node("c").bind(9, lambda p: got.append(p.payload))
        assert net.send(Packet("a", 1, "c", 9, b"hello"))
        net.scheduler.run()
        assert got == [b"hello"]

    def test_delivery_respects_latency(self, net):
        times = []
        net.node("c").bind(9, lambda p: times.append(net.scheduler.clock.now))
        net.send(Packet("a", 1, "c", 9, b"x"))
        net.scheduler.run()
        # >= 3 ms propagation plus serialization
        assert times[0] >= 0.003

    def test_unbound_port_discards(self, net):
        net.send(Packet("a", 1, "c", 1234, b"x"))
        net.scheduler.run()  # no error

    def test_unroutable_send_returns_false(self, net):
        net.add_node("island")
        assert net.send(Packet("a", 1, "island", 9, b"x")) is False

    def test_self_delivery_async(self, net):
        got = []
        net.node("a").bind(7, lambda p: got.append(p.payload))
        net.send(Packet("a", 1, "a", 7, b"self"))
        assert got == []  # not synchronous
        net.scheduler.run()
        assert got == [b"self"]

    def test_lossy_link_drops_deterministically(self):
        sched = Scheduler()
        net = Network(sched, seed=7)
        net.add_node("x")
        net.add_node("y")
        link = net.add_link("x", "y", loss=0.5)
        results = [net.send(Packet("x", 1, "y", 9, b"p")) for _ in range(200)]
        drops = results.count(False)
        assert 60 <= drops <= 140  # ~50% ± slack
        assert link.dropped_packets == drops

    def test_fifo_order_preserved_on_shared_link(self, net):
        """Simultaneous sends serialize in order despite differing sizes."""
        got = []
        net.node("c").bind(9, lambda p: got.append(p.payload))
        net.send(Packet("a", 1, "c", 9, b"L" * 900))  # big first
        net.send(Packet("a", 1, "c", 9, b"s"))        # small second
        net.scheduler.run()
        assert got == [b"L" * 900, b"s"]

    def test_counters_accumulate(self, net):
        net.node("b").bind(9, lambda p: None)
        pkt = Packet("a", 1, "b", 9, b"1234")
        net.send(pkt)
        net.scheduler.run()
        link = net.link("a", "b")
        assert link.tx_octets == pkt.size
        assert link.delivered_packets == 1


class TestFifoUnderJitter:
    """Regression: per-link FIFO must survive per-packet jitter draws.

    Jitter used to be sampled independently per packet with no ordering
    constraint, so a later packet on the same link direction could land
    before an earlier one — breaking the FIFO promise RTP reassembly
    depends on.  ``Link.enqueue`` now clamps per-direction arrivals
    non-decreasing.
    """

    def _burst_order(self, jitter, n=200, seed=11):
        sched = Scheduler()
        net = Network(sched, seed=seed)
        net.add_node("x")
        net.add_node("y")
        # jitter dwarfs both latency and per-packet serialization gap, the
        # regime where independent draws reordered nearly every burst
        net.add_link("x", "y", latency=0.0001, jitter=jitter, bandwidth=1e9)
        got = []
        net.node("y").bind(9, lambda p: got.append(p.payload))
        for i in range(n):
            net.send(Packet("x", 1, "y", 9, i.to_bytes(4, "big")))
        sched.run()
        return [int.from_bytes(b, "big") for b in got]

    def test_high_jitter_burst_stays_in_order(self):
        seqs = self._burst_order(jitter=0.05)
        assert seqs == sorted(seqs)
        assert len(seqs) == 200

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_in_order_across_seeds(self, seed):
        seqs = self._burst_order(jitter=0.01, n=50, seed=seed)
        assert seqs == sorted(seqs)

    def test_arrival_clock_is_per_direction(self):
        """Opposite directions keep independent clamps (full duplex)."""
        link = Link("x", "y", latency=0.001, jitter=0.01)
        rng = np.random.default_rng(5)
        fwd = [link.enqueue("x", 0.0, 100, rng) for _ in range(5)]
        rev = link.enqueue("y", 0.0, 100, rng)
        assert fwd == sorted(fwd)
        # the reverse direction is not forced after the forward clamp
        assert rev < fwd[-1]


class TestLruCache:
    """The route cache: a bounded :class:`repro._recent.Recent` table."""

    def test_route_cache_bounded(self, monkeypatch):
        """The network's route cache starts over instead of growing forever."""
        monkeypatch.setattr(simnet, "ROUTE_CACHE_SIZE", 4)
        net = Network(Scheduler(), seed=0)
        hosts = [f"h{i}" for i in range(6)]
        net.add_node("hub")
        for h in hosts:
            net.add_node(h)
            net.add_link(h, "hub")
        sizes = []
        for h in hosts[1:]:
            net.route(hosts[0], h)
            sizes.append(len(net._route_cache))
        assert sizes == [1, 2, 3, 4, 1]

    def test_unroutable_none_is_cached(self, net):
        net.add_node("island")
        assert net.route("a", "island") is None
        # a cached None, told from a miss by the sentinel: no second Dijkstra
        assert net._route_cache.get(("a", "island"), simnet._ROUTE_MISS) is None


class TestCast:
    """Single-copy tree replication via :meth:`Network.cast`."""

    @pytest.fixture
    def star(self):
        """root -- relay -- {m1, m2, m3}: one shared uplink, 3 leaves."""
        sched = Scheduler()
        net = Network(sched, seed=2)
        for n in ("root", "relay", "m1", "m2", "m3"):
            net.add_node(n)
        net.add_link("root", "relay", latency=0.001)
        for m in ("m1", "m2", "m3"):
            net.add_link("relay", m, latency=0.001)
        plan = CastPlan(
            "root",
            (("root", "relay"), ("relay", "m1"), ("relay", "m2"), ("relay", "m3")),
        )
        return net, plan

    def test_single_copy_per_edge(self, star):
        net, plan = star
        got = []
        for m in ("m1", "m2", "m3"):
            net.node(m).bind(9, lambda p, m=m: got.append(m))
        n = net.cast(
            Packet("root", 1, "*", 9, b"x"), plan, [(m, 9) for m in ("m1", "m2", "m3")]
        )
        net.scheduler.run()
        assert n == 3
        assert sorted(got) == ["m1", "m2", "m3"]
        # 4 tree edges, not 3 members x 2-hop paths = 6
        assert net.packets_transmitted == 4

    def test_unicast_transmissions_scale_with_members(self, star):
        net, _ = star
        for m in ("m1", "m2", "m3"):
            net.send(Packet("root", 1, m, 9, b"x"))
        assert net.packets_transmitted == 6

    def test_counter_conservation(self, star):
        net, plan = star
        net.cast(Packet("root", 1, "*", 9, b"x"), plan, [("m1", 9), ("m2", 9)])
        assert net.packets_sent == 2
        assert (
            net.packets_sent
            == net.packets_delivered + net.packets_dropped + net.packets_duplicated
        )

    def test_down_edge_severs_subtree(self, star):
        net, plan = star
        net.set_link_up("root", "relay", False)
        n = net.cast(
            Packet("root", 1, "*", 9, b"x"), plan, [(m, 9) for m in ("m1", "m2", "m3")]
        )
        assert n == 0
        assert net.packets_dropped == 3
        assert net.packets_transmitted == 0
        assert (
            net.packets_sent
            == net.packets_delivered + net.packets_dropped + net.packets_duplicated
        )

    def test_loopback_target_at_root(self, star):
        net, plan = star
        got = []
        net.node("root").bind(9, lambda p: got.append(p.payload))
        n = net.cast(Packet("root", 1, "*", 9, b"me"), plan, [("root", 9)])
        net.scheduler.run()
        assert n == 1
        assert got == [b"me"]

    def test_shared_link_serializes_once(self, star):
        """The uplink is billed one packet per cast, not one per member."""
        net, plan = star
        size = Packet("root", 1, "*", 9, b"x").size
        net.cast(
            Packet("root", 1, "*", 9, b"x"), plan, [(m, 9) for m in ("m1", "m2", "m3")]
        )
        assert net.link("root", "relay").tx_octets == size


class TestTopologyListeners:
    def test_listener_sees_add_remove_flap(self, net):
        events = []
        net.add_topology_listener(lambda a, b, up: events.append((a, b, up)))
        net.add_link("b", "d")
        net.set_link_up("b", "d", False)
        net.set_link_up("b", "d", False)  # idempotent: no second event
        net.set_link_up("b", "d", True)
        net.remove_link("b", "d")
        assert events == [
            ("b", "d", True),
            ("b", "d", False),
            ("b", "d", True),
            ("b", "d", False),
        ]


class TestJitter:
    def test_jitter_perturbs_delay(self):
        sched = Scheduler()
        net = Network(sched, seed=3)
        net.add_node("x")
        net.add_node("y")
        net.add_link("x", "y", latency=0.001, jitter=0.0005)
        times = []
        net.node("y").bind(9, lambda p: times.append(sched.clock.now))
        t_sent = []
        for _ in range(20):
            t_sent.append(sched.clock.now)
            net.send(Packet("x", 1, "y", 9, b"q"))
            sched.run()
        delays = np.diff([0] + times)
        assert len(set(np.round(delays, 9))) > 1  # not all identical
