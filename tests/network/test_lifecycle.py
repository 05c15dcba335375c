"""Lifecycle regression tests: idempotent close and use-after-close guards.

These pin the RES-family fixes: every socket and endpoint in the tree
must tolerate a second ``close()`` (RES002) and refuse sends after it
(RES003) instead of silently writing into a dead fabric.
"""

import pytest

from repro.core.profiles import ClientProfile
from repro.messaging.message import SemanticMessage
from repro.messaging.transport import SemanticEndpoint
from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup, MulticastSocket
from repro.network.simnet import Network, NetworkError
from repro.network.udp import DatagramSocket


@pytest.fixture
def fabric():
    sched = Scheduler()
    net = Network(sched, seed=0)
    net.add_node("sw")
    for name in ("a", "b"):
        net.add_node(name)
        net.add_link(name, "sw", latency=0.001)
    group = MulticastGroup(net, "239.9.9.9", 5000)
    return net, group


class TestDatagramSocketLifecycle:
    def test_close_is_idempotent(self, fabric):
        net, _ = fabric
        sock = DatagramSocket(net, "a")
        sock.bind(7)
        sock.close()
        sock.close()

    def test_use_after_close_raises(self, fabric):
        net, _ = fabric
        sock = DatagramSocket(net, "a")
        sock.bind(7)
        sock.close()
        with pytest.raises(NetworkError):
            sock.sendto(b"x", ("b", 7))
        with pytest.raises(NetworkError):
            sock.bind(8)
        with pytest.raises(NetworkError):
            sock.bind_ephemeral()


class TestMulticastSocketLifecycle:
    def test_leave_is_idempotent(self, fabric):
        net, group = fabric
        sock = MulticastSocket(net, "a", group)
        sock.leave()
        sock.leave()
        assert sock.closed
        assert group.members == []

    def test_close_aliases_leave(self, fabric):
        net, group = fabric
        sock = MulticastSocket(net, "a", group)
        sock.close()
        assert sock.closed
        assert group.members == []
        sock.close()  # still idempotent through the alias

    def test_send_after_leave_raises(self, fabric):
        net, group = fabric
        sock = MulticastSocket(net, "a", group)
        MulticastSocket(net, "b", group)
        sock.leave()
        with pytest.raises(NetworkError):
            sock.send(b"x")
        with pytest.raises(NetworkError):
            sock.unicast(b"x", ("b", 5000))


class TestSemanticEndpointLifecycle:
    def test_publish_after_close_raises(self, fabric):
        net, group = fabric
        ep = SemanticEndpoint(
            net, "a", group, ClientProfile("a", {}), lambda d: None
        )
        ep.close()
        ep.close()
        msg = SemanticMessage.create("a", "true")
        with pytest.raises(RuntimeError):
            ep.publish(msg)
        with pytest.raises(RuntimeError):
            ep.unicast(msg, ("b", 5000))
