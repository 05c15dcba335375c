"""End-to-end agent ↔ manager tests over the simulated network."""

import pytest

from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket
from repro.snmp.agent import SnmpAgent
from repro.snmp.ber import Gauge32, OctetString
from repro.snmp.errors import SnmpErrorResponse, SnmpProtocolError, SnmpTimeout
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import MibTree
from repro.snmp.oids import MIB2, OID, TASSL
from repro.snmp.pdu import PDU_RESPONSE, VERSION_2C, SnmpMessage
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
    tree.register_callable(
        TASSL.hostCpuLoad,
        lambda: Gauge32(box["cpu"]),
        setter=lambda v: box.__setitem__("cpu", v.value),
    )
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


class TestGetNextWalk:
    def test_get_next(self, stack):
        _, _, _, mgr, _ = stack
        oid, value = mgr.get_next("host1", TASSL.root)
        assert oid == TASSL.hostCpuLoad
        assert value.value == 42

    def test_walk_subtree(self, stack):
        _, _, _, mgr, _ = stack
        out = mgr.walk("host1", TASSL.root)
        assert [o for o, _ in out] == [TASSL.hostCpuLoad, TASSL.hostPageFaults]

    def test_walk_to_end_of_mib(self, stack):
        _, _, _, mgr, _ = stack
        out = mgr.walk("host1", OID("1.3"))
        assert len(out) == 3  # sysName + 2 TASSL scalars


def scripted_agent(net, host, answers):
    """A fake agent on ``host``: its n-th reply, to a GETNEXT or a GETBULK
    alike, is the one varbind ``answers[n]``.  Returns the OIDs served."""
    sock = DatagramSocket(net, host)
    sock.bind(161)
    served = []

    def reply(data, src):
        request = SnmpMessage.from_bytes(data)
        oid = answers[len(served)]
        served.append(oid)
        response = SnmpMessage(
            request.version, request.community, PDU_RESPONSE, request.request_id, 0, 0, ((oid, Gauge32(1)),)
        )
        sock.sendto(response.to_bytes(), src)

    sock.on_receive = reply
    return served


class TestWalkRefusesAnOidThatDoesNotIncrease:
    """An agent that repeats or rewinds an OID would keep a walk asking
    forever; both walks refuse the answer ("OID not increasing", as
    net-snmp reports it) instead of returning duplicate rows."""

    @pytest.mark.parametrize("walk", ["walk", "bulk_walk"])
    @pytest.mark.parametrize(
        "answers",
        [
            [MIB2.ifInOctets.child(1)] * 50 + [OID("1.3.6.1.9")],
            [MIB2.ifInOctets.child(2), MIB2.ifInOctets.child(1), OID("1.3.6.1.9")],
        ],
        ids=["repeats", "rewinds"],
    )
    def test_refused(self, stack, walk, answers):
        _, net, _, mgr, _ = stack
        net.add_node("liar")
        net.add_link("mgr", "liar", latency=0.002, bandwidth=1e6)
        served = scripted_agent(net, "liar", answers)
        with pytest.raises(SnmpProtocolError, match="OID not increasing"):
            getattr(mgr, walk)("liar", MIB2.ifInOctets)
        assert len(served) == 2


class TestSet:
    def test_set_with_write_community(self, stack):
        sched, net, _, _, box = stack
        mgr = SnmpManager(DatagramSocket(net, "mgr"), sched, community="private")
        mgr.set("host1", [(TASSL.hostCpuLoad, Gauge32(11))])
        assert box["cpu"] == 11

    def test_set_with_read_community_dropped(self, stack):
        """RFC 1157 v1: bad community for op -> silent drop -> timeout."""
        sched, net, agent, mgr, box = stack
        mgr.timeout = 0.05
        mgr.retries = 0
        with pytest.raises(SnmpTimeout):
            mgr.set("host1", [(TASSL.hostCpuLoad, Gauge32(11))])
        assert box["cpu"] == 42
        assert agent.auth_failures >= 1


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
