"""Tests for the explicit Transport protocol surface and its implementations."""

import pytest

from repro.core.profiles import ClientProfile
from repro.messaging.message import SemanticMessage
from repro.messaging.transport import (
    DatagramTransport,
    LoopbackUDP,
    SemanticEndpoint,
    SimTransport,
    Transport,
)
from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket


@pytest.fixture
def sim():
    sched = Scheduler()
    net = Network(sched, seed=7)
    for host in ("a", "b"):
        net.add_node(host)
    net.add_link("a", "b", latency=0.001, bandwidth=1e7)
    group = MulticastGroup(net, "239.0.0.1", 5004)
    return net, group


class TestProtocolConformance:
    def test_sim_transport_satisfies_transport(self, sim):
        net, group = sim
        t = SimTransport(net, "a", group)
        assert isinstance(t, Transport)
        t.close()
        t.close()  # idempotent

    def test_loopback_udp_satisfies_transport(self):
        t = LoopbackUDP()
        assert isinstance(t, Transport)
        t.close()
        t.close()

    def test_datagram_socket_satisfies_datagram_transport(self, sim):
        net, _ = sim
        sock = DatagramSocket(net, "a")
        assert isinstance(sock, DatagramTransport)
        sock.close()

    def test_transports_are_distinct_protocols(self):
        t = LoopbackUDP()
        assert not isinstance(t, DatagramTransport)  # no bind/sendto surface
        t.close()


class TestLoopbackUDP:
    def test_peer_fanout_roundtrip(self):
        a = LoopbackUDP()
        b = LoopbackUDP()
        a.add_peer(b.local_address)
        a.add_peer(b.local_address)  # duplicate ignored
        a.add_peer(a.local_address)  # self: excluded from fan-out
        got = []
        b.on_receive = lambda data, src: got.append(data)
        assert a.send(b"hello") == 1
        assert b.poll() == 1
        assert got == [b"hello"]
        assert a.sent_datagrams == 1
        assert b.received_datagrams == 1
        a.close()
        b.close()

    def test_unicast(self):
        a = LoopbackUDP()
        b = LoopbackUDP()
        got = []
        b.on_receive = lambda data, src: got.append((data, src))
        assert a.unicast(b"direct", b.local_address) is True
        b.poll()
        assert got[0][0] == b"direct"
        a.close()
        b.close()

    def test_send_after_close_raises(self):
        t = LoopbackUDP()
        t.close()
        with pytest.raises(RuntimeError):
            t.send(b"x")

    def test_poll_on_empty_socket(self):
        t = LoopbackUDP()
        assert t.poll() == 0
        t.close()


class TestEndpointOverTransport:
    def test_semantic_messages_over_real_udp(self):
        """The full stack — serialize, RTP-fragment, real OS sockets,
        reassemble, interpret — over loopback UDP with no simulator."""
        ta = LoopbackUDP()
        tb = LoopbackUDP()
        ta.add_peer(tb.local_address)
        tb.add_peer(ta.local_address)

        got = []
        pa = ClientProfile("a", {"role": "sender"})
        pb = ClientProfile("b", {"role": "medic"})
        ea = SemanticEndpoint.over_transport(ta, pa, lambda d: None)
        eb = SemanticEndpoint.over_transport(tb, pb, lambda d: got.append(d))

        msg = SemanticMessage.create(
            "a", "role == 'medic'", body=b"x" * 3000, kind="alert"
        )
        frags = ea.publish(msg)
        assert frags > 1  # body forces fragmentation
        while tb.poll():
            pass
        assert len(got) == 1
        assert got[0].message.body == msg.body
        assert eb.accepted_messages == 1

        # selector miss: interpreted and rejected at the receiver
        ea.publish(SemanticMessage.create("a", "role == 'clerk'"))
        while tb.poll():
            pass
        assert len(got) == 1
        assert eb.received_messages == 2

        ea.close()
        eb.close()

    def test_over_transport_without_scheduler_manual_expire(self):
        t = LoopbackUDP()
        e = SemanticEndpoint.over_transport(t, ClientProfile("x"), lambda d: None)
        assert e.scheduler is None and e._expire_event is None  # no tick without a clock
        assert e.wire.reassembler.abandoned == 0  # readable without a clock
        e.close()

    def test_sim_endpoint_still_uses_sim_transport(self, sim):
        net, group = sim
        e = SemanticEndpoint(
            net, "a", group, ClientProfile("a"), lambda d: None
        )
        assert isinstance(e.transport, SimTransport)
        assert e.transport.scheduler is net.scheduler
        e.close()
