"""Tests for datagram sockets."""

import pytest

from repro.network.clock import Scheduler
from repro.network.simnet import Network, NetworkError, PortInUseError
from repro.network.udp import EPHEMERAL_BASE, EPHEMERAL_MAX, DatagramSocket


@pytest.fixture
def net():
    sched = Scheduler()
    network = Network(sched, seed=0)
    network.add_node("a")
    network.add_node("b")
    network.add_link("a", "b", latency=0.001)
    return network


class TestBinding:
    def test_explicit_bind(self, net):
        s = DatagramSocket(net, "a")
        s.bind(100)
        assert s.port == 100

    def test_double_bind_rejected(self, net):
        s = DatagramSocket(net, "a")
        s.bind(100)
        with pytest.raises(NetworkError):
            s.bind(101)

    def test_port_collision_rejected(self, net):
        DatagramSocket(net, "a").bind(100)
        with pytest.raises(NetworkError):
            DatagramSocket(net, "a").bind(100)

    def test_same_port_different_hosts_ok(self, net):
        DatagramSocket(net, "a").bind(100)
        DatagramSocket(net, "b").bind(100)

    def test_ephemeral_allocation_skips_taken(self, net):
        s1 = DatagramSocket(net, "a")
        assert s1.bind_ephemeral() == EPHEMERAL_BASE
        s2 = DatagramSocket(net, "a")
        assert s2.bind_ephemeral() == EPHEMERAL_BASE + 1

    def test_close_releases_port(self, net):
        s = DatagramSocket(net, "a")
        s.bind(100)
        s.close()
        DatagramSocket(net, "a").bind(100)  # port reusable

    def test_closed_socket_rejects_ops(self, net):
        s = DatagramSocket(net, "a")
        s.close()
        with pytest.raises(NetworkError):
            s.sendto(b"x", ("b", 1))
        with pytest.raises(NetworkError):
            s.bind(5)


class TestEphemeralChurn:
    """Regression: ephemeral allocation must not rescan from the base on
    every bind (O(N^2) churn) nor misread unrelated errors as conflicts."""

    def test_port_reused_after_close(self, net):
        s1 = DatagramSocket(net, "a")
        p1 = s1.bind_ephemeral()
        s1.close()
        # the hint has moved past p1, so reuse happens via wraparound —
        # simulate reaching the end of the range first
        net.node("a").ephemeral_hint = EPHEMERAL_MAX
        s2 = DatagramSocket(net, "a")
        assert s2.bind_ephemeral() == EPHEMERAL_MAX
        s3 = DatagramSocket(net, "a")
        assert s3.bind_ephemeral() == p1  # wrapped to the freed port

    def test_churn_does_not_rescan_from_base(self, net):
        """Open/close cycles keep advancing the hint: O(1) probes each."""
        node = net.node("a")
        for i in range(50):
            s = DatagramSocket(net, "a")
            port = s.bind_ephemeral()
            assert port == EPHEMERAL_BASE + i  # no rescan of freed ports
            s.close()
        assert node.ephemeral_hint == EPHEMERAL_BASE + 50

    def test_conflict_is_port_in_use_error(self, net):
        DatagramSocket(net, "a").bind(100)
        with pytest.raises(PortInUseError):
            DatagramSocket(net, "a").bind(100)

    def test_non_conflict_error_propagates(self, net, monkeypatch):
        """A NetworkError that isn't a port conflict must not be retried."""
        node = net.node("a")
        calls = []

        def failing_bind(port, handler):
            calls.append(port)
            raise NetworkError("interface wedged")

        monkeypatch.setattr(node, "bind", failing_bind)
        s = DatagramSocket(net, "a")
        with pytest.raises(NetworkError, match="interface wedged"):
            s.bind_ephemeral()
        assert len(calls) == 1  # no blind retry loop

    def test_exhaustion_raises(self, net):
        node = net.node("a")
        handler = lambda p: None
        for port in range(EPHEMERAL_BASE, EPHEMERAL_MAX + 1):
            node.bind(port, handler)
        with pytest.raises(NetworkError, match="exhausted"):
            DatagramSocket(net, "a").bind_ephemeral()


class TestSendReceive:
    def test_callback_mode(self, net):
        got = []
        rx = DatagramSocket(net, "b")
        rx.bind(7)
        rx.on_receive = lambda data, src: got.append((data, src))
        tx = DatagramSocket(net, "a")
        tx.sendto(b"x", ("b", 7))
        net.scheduler.run()
        assert got == [(b"x", ("a", tx.port))]

    def test_sendto_auto_binds_source(self, net):
        tx = DatagramSocket(net, "a")
        assert tx.port is None
        tx.sendto(b"x", ("b", 7))
        assert tx.port is not None

    def test_reply_path(self, net):
        server = DatagramSocket(net, "b")
        server.bind(7)
        server.on_receive = lambda data, src: server.sendto(b"pong:" + data, src)
        client = DatagramSocket(net, "a")
        client.bind_ephemeral()
        got = []
        client.on_receive = lambda data, src: got.append((data, src))
        client.sendto(b"1", ("b", 7))
        net.scheduler.run()
        assert got == [(b"pong:1", ("b", 7))]

    def test_counters(self, net):
        rx = DatagramSocket(net, "b")
        rx.bind(7)
        got = []
        rx.on_receive = lambda data, src: got.append(data)
        tx = DatagramSocket(net, "a")
        assert all(tx.sendto(b"x", ("b", 7)) for _ in range(3))
        net.scheduler.run()
        assert got == [b"x"] * 3
