"""Tests for multicast group delivery."""

import pytest

from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup, MulticastSocket
from repro.network.simnet import Network


@pytest.fixture
def fabric():
    sched = Scheduler()
    net = Network(sched, seed=0)
    net.add_node("sw")
    for name in ("a", "b", "c"):
        net.add_node(name)
        net.add_link(name, "sw", latency=0.001)
    group = MulticastGroup(net, "239.1.2.3", 5000)
    return net, group


def make_member(net, group, host, sink):
    return MulticastSocket(
        net, host, group, on_receive=lambda d, s, h=host: sink.append((h, d))
    )


class TestMembership:
    def test_members_listed_sorted(self, fabric):
        net, group = fabric
        for h in ("c", "a", "b"):
            MulticastSocket(net, h, group)
        hosts = [h for h, _ in group.members]
        assert hosts == ["a", "b", "c"]

    def test_leave_removes_member(self, fabric):
        net, group = fabric
        sock = MulticastSocket(net, "a", group)
        sock.leave()
        assert group.members == []

    def test_leave_stops_delivery(self, fabric):
        net, group = fabric
        got = []
        member = make_member(net, group, "b", got)
        sender = MulticastSocket(net, "a", group)
        member.leave()
        sender.send(b"x")
        net.scheduler.run()
        assert got == []


class TestFanOut:
    def test_all_members_except_sender_receive(self, fabric):
        net, group = fabric
        got = []
        socks = [make_member(net, group, h, got) for h in ("a", "b", "c")]
        socks[0].send(b"ev")
        net.scheduler.run()
        assert sorted(got) == [("b", b"ev"), ("c", b"ev")]

    def test_send_returns_member_count(self, fabric):
        net, group = fabric
        socks = [MulticastSocket(net, h, group) for h in ("a", "b", "c")]
        assert socks[0].send(b"x") == 2

    def test_unicast_side_channel(self, fabric):
        net, group = fabric
        got = []
        receiver = make_member(net, group, "b", got)
        sender = MulticastSocket(net, "a", group)
        sender.unicast(b"direct", (receiver.host, receiver.local_port))
        net.scheduler.run()
        assert got == [("b", b"direct")]

    def test_two_groups_isolated(self, fabric):
        net, group = fabric
        other = MulticastGroup(net, "239.9.9.9", 6000)
        got_a, got_b = [], []
        make_member(net, group, "b", got_a)
        make_member(net, other, "c", got_b)
        MulticastSocket(net, "a", group).send(b"g1")
        net.scheduler.run()
        assert got_a == [("b", b"g1")]
        assert got_b == []


class TestReceiveCallback:
    """The callback is handed to the member's datagram socket."""

    def test_member_without_callback_drops_and_queues_nothing(self, fabric):
        net, group = fabric
        member = MulticastSocket(net, "b", group, on_receive=None)
        MulticastSocket(net, "a", group).send(b"x")
        net.scheduler.run()
        assert member.received_datagrams == 1
        assert member.on_receive is None
        assert member._sock.pending == 0 and member._sock.recvfrom() is None

    def test_callback_assigned_after_join_gets_the_next_datagram(self, fabric):
        net, group = fabric
        member = MulticastSocket(net, "b", group)
        sender = MulticastSocket(net, "a", group)
        sender.send(b"before")
        net.scheduler.run()
        got = []
        member.on_receive = lambda data, src: got.append((data, src))
        sender.send(b"after")
        net.scheduler.run()
        assert got == [(b"after", ("a", sender.local_port))]
        assert member._sock.pending == 0


class TestTelemetry:
    """Regression: multicast sends must show up in ``sent_datagrams``.

    The flat fan-out used to build raw ``Packet``s and call
    ``network.send`` directly, bypassing the sender's socket counter that
    host instrumentation exports — multicast traffic was invisible.
    """

    def test_flat_send_counts_on_sender_socket(self, fabric):
        net, group = fabric
        socks = [MulticastSocket(net, h, group) for h in ("a", "b", "c")]
        assert socks[0].sent_datagrams == 0
        socks[0].send(b"x")
        # flat mode: one unicast datagram per non-sender member
        assert socks[0].sent_datagrams == 2
        assert socks[1].sent_datagrams == 0

    def test_tree_send_counts_one_datagram(self):
        from repro.network.routing import MulticastFabric

        sched = Scheduler()
        net = Network(sched, seed=0)
        fab = MulticastFabric(net)
        fab.add_domain("d")
        fab.add_router("r", "d")
        for h in ("a", "b", "c"):
            fab.attach_host(h, "r")
        group = MulticastGroup(net, "239.1.2.3", 5000, fabric=fab)
        socks = [MulticastSocket(net, h, group) for h in ("a", "b", "c")]
        socks[0].send(b"x")
        # tree mode: one physical datagram leaves the NIC per group send
        assert socks[0].sent_datagrams == 1

    def test_received_counter_exposed(self, fabric):
        net, group = fabric
        socks = [MulticastSocket(net, h, group) for h in ("a", "b")]
        socks[0].send(b"x")
        net.scheduler.run()
        assert socks[1].received_datagrams == 1


class TestFabricBackedGroup:
    """MulticastGroup riding the routing fabric behind the same API."""

    @pytest.fixture
    def tree(self):
        from repro.network.routing import MulticastFabric

        sched = Scheduler()
        net = Network(sched, seed=0)
        fab = MulticastFabric(net)
        fab.add_domain("core")
        fab.add_router("r0", "core")
        fab.add_router("r1", "core", parent="r0")
        fab.add_router("r2", "core", parent="r0")
        for h in ("a", "b"):
            fab.attach_host(h, "r1")
        for h in ("c", "d"):
            fab.attach_host(h, "r2")
        group = MulticastGroup(net, "239.1.2.3", 5000, fabric=fab)
        return net, fab, group

    def test_same_api_same_delivery(self, tree):
        net, fab, group = tree
        got = []
        socks = [make_member(net, group, h, got) for h in ("a", "b", "c", "d")]
        assert socks[0].send(b"ev") == 3
        net.scheduler.run()
        assert sorted(got) == [("b", b"ev"), ("c", b"ev"), ("d", b"ev")]

    def test_leave_prunes_tree(self, tree):
        net, fab, group = tree
        socks = [MulticastSocket(net, h, group) for h in ("a", "b", "c", "d")]
        before = fab.group_edges("239.1.2.3")
        for s in socks[2:]:
            s.leave()
        after = fab.group_edges("239.1.2.3")
        assert frozenset(("c", "r2")) in before
        assert frozenset(("c", "r2")) not in after
        assert len(after) < len(before)
        assert fab.prunes > 0

    def test_two_sockets_one_host_refcounted(self, tree):
        net, fab, group = tree
        s1 = MulticastSocket(net, "a", group)
        s2 = MulticastSocket(net, "a", group)
        MulticastSocket(net, "c", group)
        s1.leave()
        # "a" still has a live socket: its access edge must survive
        assert frozenset(("a", "r1")) in fab.group_edges("239.1.2.3")
        s2.leave()
        assert frozenset(("a", "r1")) not in fab.group_edges("239.1.2.3")

    def test_refused_join_leaves_no_ghost_member(self, tree):
        """A host that is not attached to the fabric cannot join — and must
        leave nothing behind: no group entry, no bound port, no lost copy."""
        from repro.network.routing import RoutingError

        net, fab, group = tree
        got = []
        socks = [make_member(net, group, h, got) for h in ("a", "b", "c")]
        net.add_node("stray")  # on the network, never attach_host()-ed
        net.add_link("stray", "r2")
        members = group.members
        with pytest.raises(RoutingError):
            MulticastSocket(net, "stray", group)
        assert group.members == members
        assert fab.members("239.1.2.3") == ["a", "b", "c"]
        assert not net.node("stray")._port_handlers  # the ephemeral port was released
        assert socks[0].send(b"ev") == 2
        net.scheduler.run()
        assert sorted(got) == [("b", b"ev"), ("c", b"ev")]
        assert net.packets_dropped == 0
