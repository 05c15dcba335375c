"""End-to-end agent ↔ manager tests over the simulated network."""

import pytest

from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket
from repro.snmp.agent import SnmpAgent
from repro.snmp.ber import Gauge32, OctetString
from repro.snmp.errors import SnmpErrorResponse, SnmpTimeout
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import MibTree
from repro.snmp.oids import MIB2, OID, TASSL
from repro.snmp.pdu import PDU_GET, PDU_RESPONSE, VERSION_1, VERSION_2C, SnmpMessage
from repro.snmp.traps import TrapListener, TrapSender


@pytest.fixture
def stack():
    sched = Scheduler()
    net = Network(sched, seed=1)
    net.add_node("mgr")
    net.add_node("host1")
    net.add_link("mgr", "host1", latency=0.002, bandwidth=1e6)
    tree = MibTree()
    tree.register_scalar(MIB2.sysName, OctetString(b"host1"))
    box = {"cpu": 42}
    tree.register_callable(TASSL.hostCpuLoad, lambda: Gauge32(box["cpu"]))
    tree.register_scalar(TASSL.hostPageFaults, Gauge32(7))
    agent = SnmpAgent(DatagramSocket(net, "host1"), tree)
    mgr = SnmpManager(DatagramSocket(net, "mgr"), sched)
    return sched, net, agent, mgr, box


class TestGet:
    def test_get_scalar(self, stack):
        _, _, _, mgr, _ = stack
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42

    def test_get_multiple_varbinds(self, stack):
        _, _, _, mgr, _ = stack
        out = mgr.get("host1", [TASSL.hostCpuLoad, TASSL.hostPageFaults])
        assert [v.value for _, v in out] == [42, 7]
        assert [o for o, _ in out] == [TASSL.hostCpuLoad, TASSL.hostPageFaults]

    def test_get_live_value(self, stack):
        _, _, _, mgr, box = stack
        box["cpu"] = 93
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 93

    def test_get_missing_raises_error_response(self, stack):
        _, _, _, mgr, _ = stack
        with pytest.raises(SnmpErrorResponse) as ei:
            mgr.get_scalar("host1", OID("1.3.9.9.9.0"))
        assert ei.value.index == 1

    def test_virtual_time_advances(self, stack):
        sched, _, _, mgr, _ = stack
        mgr.get_scalar("host1", TASSL.hostCpuLoad)
        assert sched.clock.now > 0.003  # at least a round trip


def exchange(sched, net, message, agent_host="host1"):
    """Send one raw request from a fresh socket on ``mgr`` to the agent on
    ``agent_host`` and return the replies it got, decoded."""
    sock = DatagramSocket(net, "mgr")
    replies = []
    sock.on_receive = lambda data, src: replies.append(SnmpMessage.from_bytes(data))
    sock.sendto(message.to_bytes(), (agent_host, 161))
    sched.run()
    sock.close()
    return replies


class TestRequestPdus:
    """GET is the one request the agent serves: GETNEXT (0xA1), SET (0xA3)
    and GETBULK (0xA5), which the codec no longer knows, and a Response
    (0xA2) or trap (0xA7), which it does, are refused like undecodable
    bytes."""

    @pytest.mark.parametrize("tag", [0xA1, 0xA2, 0xA3, 0xA5, 0xA7])
    def test_a_pdu_other_than_get_gets_no_reply(self, stack, tag):
        sched, net, agent, _, _ = stack
        varbinds = ((TASSL.hostCpuLoad, Gauge32(11)),)
        for version in (VERSION_1, VERSION_2C):
            request = SnmpMessage(version, "public", tag, 7, 0, 2, varbinds)
            assert exchange(sched, net, request) == []
        assert (agent.requests_served, agent.decode_failures, agent.auth_failures) == (0, 2, 0)
        (reply,) = exchange(sched, net, SnmpMessage(VERSION_2C, "public", PDU_GET, 8, 0, 0, varbinds))
        assert reply.result() == [(TASSL.hostCpuLoad, Gauge32(42))]
        assert agent.requests_served == 1


class TestRobustness:
    def test_timeout_on_unbound_port(self, stack):
        _, _, _, mgr, _ = stack
        mgr.timeout = 0.05
        mgr.retries = 1
        with pytest.raises(SnmpTimeout):
            mgr.get_scalar("host1", TASSL.hostCpuLoad, port=9999)
        assert mgr.timeouts == 2  # initial + 1 retry

    def test_garbage_datagram_ignored(self, stack):
        sched, net, agent, mgr, _ = stack
        junk = DatagramSocket(net, "mgr")
        junk.sendto(b"\xff\xfegarbage", ("host1", 161))
        sched.run()
        assert agent.decode_failures == 1
        # agent still serves afterwards
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42

    def test_wrong_community_get_dropped(self, stack):
        sched, net, agent, _, _ = stack
        bad = SnmpManager(
            DatagramSocket(net, "mgr"), sched, community="wrong", timeout=0.05, retries=0
        )
        with pytest.raises(SnmpTimeout):
            bad.get_scalar("host1", TASSL.hostCpuLoad)
        assert agent.auth_failures >= 1

    def test_retry_succeeds_after_loss(self):
        """A lossy path is survivable through retries."""
        sched = Scheduler()
        net = Network(sched, seed=5)
        net.add_node("mgr")
        net.add_node("host1")
        net.add_link("mgr", "host1", latency=0.002, loss=0.4)
        tree = MibTree()
        tree.register_scalar(TASSL.hostCpuLoad, Gauge32(1))
        SnmpAgent(DatagramSocket(net, "host1"), tree)
        mgr = SnmpManager(
            DatagramSocket(net, "mgr"), sched, timeout=0.1, retries=10
        )
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 1

    def test_concurrent_managers_do_not_cross_talk(self, stack):
        sched, net, _, mgr, _ = stack
        mgr2 = SnmpManager(DatagramSocket(net, "mgr"), sched)
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42
        assert mgr2.get_scalar("host1", TASSL.hostPageFaults).value == 7
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42

    def test_unsolicited_responses_are_not_kept(self, stack):
        sched, net, _, mgr, _ = stack
        mallory = DatagramSocket(net, "host1")
        for request_id in range(1000, 3000):
            response = SnmpMessage(
                VERSION_2C, "public", PDU_RESPONSE, request_id, 0, 0, ((TASSL.hostCpuLoad, Gauge32(1)),)
            )
            mallory.sendto(response.to_bytes(), ("mgr", mgr._sock.port))
        sched.run()
        assert mgr._responses == {}
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42
        assert mgr._responses == {}

    def test_reply_from_another_host_is_not_accepted(self):
        """A Response carrying the awaited request id but sent by a host
        that was not asked is dropped: the agent's own reply wins."""
        sched = Scheduler()
        net = Network(sched, seed=1)
        for node in ("mgr", "host1", "rogue"):
            net.add_node(node)
        net.add_link("mgr", "host1", latency=0.010)
        net.add_link("mgr", "rogue", latency=0.001)
        tree = MibTree()
        tree.register_scalar(TASSL.hostCpuLoad, Gauge32(42))
        SnmpAgent(DatagramSocket(net, "host1"), tree)
        mgr = SnmpManager(DatagramSocket(net, "mgr"), sched)
        rogue = DatagramSocket(net, "rogue")
        rogue.bind(161)
        forged = SnmpMessage(VERSION_2C, "public", PDU_RESPONSE, 1, 0, 0, ((TASSL.hostCpuLoad, Gauge32(3)),))
        sched.call_at(0.0, lambda: rogue.sendto(forged.to_bytes(), ("mgr", mgr._sock.port)))
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42
        assert mgr._responses == {}

    def test_late_reply_is_not_kept(self, stack):
        sched, _, _, mgr, _ = stack
        mgr.timeout = 0.001  # shorter than the 4 ms round trip
        mgr.retries = 0
        with pytest.raises(SnmpTimeout):
            mgr.get_scalar("host1", TASSL.hostCpuLoad)
        sched.run()  # the reply lands after the request gave up
        assert mgr._responses == {}

    def test_trap_driven_get_nested_in_a_poll(self, stack):
        """A trap callback re-adapts (a GET of its own) while a GET is
        pumping the scheduler; the outer reply lands during the inner
        GET and both complete."""
        sched, net, _, mgr, _ = stack
        inner = []
        TrapListener(net, "mgr", lambda n: inner.append(mgr.get_scalar("host1", TASSL.hostPageFaults).value))
        sender = TrapSender(net, "host1")
        sched.call_at(0.001, lambda: sender.send(("mgr", 162), TASSL.pageFaultHighTrap, []))
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42
        assert inner == [7]
        assert mgr.timeouts == 0
        assert mgr._responses == {}
