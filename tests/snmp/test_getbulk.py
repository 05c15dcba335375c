"""Tests for GETBULK (SNMPv2c)."""

import pytest

from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket
from repro.snmp.agent import PDU_GETBULK, VERSION_1, SnmpAgent
from repro.snmp.ber import EndOfMibView, Gauge32, Null, OctetString
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import MibTree
from repro.snmp.oids import MIB2, OID, TASSL
from repro.snmp.pdu import SnmpMessage


@pytest.fixture
def stack():
    sched = Scheduler()
    net = Network(sched, seed=1)
    net.add_node("mgr")
    net.add_node("host1")
    net.add_link("mgr", "host1", latency=0.001, bandwidth=1e7)
    tree = MibTree()
    tree.register_scalar(MIB2.sysName, OctetString(b"host1"))
    for i in range(1, 21):  # a 20-row "table"
        tree.register_scalar(MIB2.ifInOctets.child(i), Gauge32(i * 100))
    tree.register_scalar(TASSL.hostCpuLoad, Gauge32(5))
    agent = SnmpAgent(DatagramSocket(net, "host1"), tree)
    mgr = SnmpManager(DatagramSocket(net, "mgr"), sched)
    return sched, net, agent, mgr


class TestGetBulk:
    def test_repetitions_traverse_table(self, stack):
        _, _, _, mgr = stack
        out = mgr.get_bulk("host1", [MIB2.ifInOctets], max_repetitions=5)
        assert len(out) == 5
        assert [v.value for _, v in out] == [100, 200, 300, 400, 500]

    def test_non_repeaters_single_next(self, stack):
        _, _, _, mgr = stack
        out = mgr.get_bulk(
            "host1",
            [MIB2.system, MIB2.ifInOctets],
            non_repeaters=1,
            max_repetitions=3,
        )
        # first varbind: one next (sysName); second: three table rows
        assert out[0][0] == MIB2.sysName
        assert len(out) == 4

    def test_end_of_mib_view_exception(self, stack):
        _, _, _, mgr = stack
        last = TASSL.hostCpuLoad
        out = mgr.get_bulk("host1", [last], max_repetitions=5)
        assert isinstance(out[-1][1], EndOfMibView)
        assert len(out) == 1  # stops immediately at end of MIB

    def test_zero_repetitions(self, stack):
        _, _, _, mgr = stack
        out = mgr.get_bulk("host1", [MIB2.ifInOctets], max_repetitions=0)
        assert out == []

    def test_v1_agent_frame_dropped(self, stack):
        """An agent receiving GETBULK in a v1 frame must drop it."""
        sched, net, agent, _ = stack
        frame = SnmpMessage(
            VERSION_1, "public", PDU_GETBULK, 1, 0, 3, ((MIB2.ifInOctets, Null()),)
        ).to_bytes()
        sock = DatagramSocket(net, "mgr")
        replies = []
        sock.on_receive = lambda data, src: replies.append(data)
        sock.sendto(frame, ("host1", 161))
        sched.run()
        assert agent.decode_failures == 1
        assert agent.requests_served == 0
        assert replies == []


class TestBulkWalk:
    def test_matches_plain_walk(self, stack):
        _, _, _, mgr = stack
        plain = mgr.walk("host1", MIB2.ifInOctets)
        bulk = mgr.bulk_walk("host1", MIB2.ifInOctets, max_repetitions=7)
        assert bulk == plain
        assert len(bulk) == 20

    def test_fewer_round_trips(self, stack):
        _, _, _, mgr = stack
        before = mgr.requests_sent
        mgr.walk("host1", MIB2.ifInOctets)
        plain_cost = mgr.requests_sent - before
        before = mgr.requests_sent
        mgr.bulk_walk("host1", MIB2.ifInOctets, max_repetitions=20)
        bulk_cost = mgr.requests_sent - before
        assert bulk_cost < plain_cost / 3

    def test_whole_mib(self, stack):
        _, _, _, mgr = stack
        out = mgr.bulk_walk("host1", OID("1.3"), max_repetitions=8)
        assert len(out) == 22  # sysName + 20 rows + cpu
