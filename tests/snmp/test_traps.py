"""Tests for SNMPv2c traps and event-driven adaptation."""

import pytest

from repro.hosts.workload import Trace
from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket
from repro.snmp.ber import Gauge32, Integer, OctetString, Sequence, TaggedPdu, TimeTicks, encode
from repro.snmp.oids import MIB2, TASSL
from repro.snmp.traps import Notification, ThresholdWatch, TrapListener, TrapSender, snmpTrapOID


def trap_frame(version=1, uptime=TimeTicks(5), extra=()):
    """A v2c trap written field by field, so each field can be wrong."""
    varbinds = (
        Sequence((MIB2.sysUpTime.to_ber(), uptime, *extra)),
        Sequence((snmpTrapOID.to_ber(), TASSL.cpuHighTrap.to_ber())),
    )
    pdu = TaggedPdu(0xA7, (Integer(1), Integer(0), Integer(0), Sequence(varbinds)))
    return encode(Sequence((Integer(version), OctetString(b"public"), pdu)))


#: each was accepted or raised by the listener before it parsed traps
#: with the shared message codec
HOSTILE_TRAPS = {
    "3-element varbind": trap_frame(extra=(Integer(3),)),
    "version 99": trap_frame(version=99),
    "OCTET STRING sysUpTime": trap_frame(uptime=OctetString(b"x")),
}


@pytest.fixture
def fabric():
    sched = Scheduler()
    net = Network(sched, seed=0)
    net.add_node("agent-host")
    net.add_node("mgr-host")
    net.add_link("agent-host", "mgr-host", latency=0.001)
    return sched, net


class TestTrapWire:
    def test_trap_round_trip(self, fabric):
        sched, net = fabric
        got: list[Notification] = []
        TrapListener(net, "mgr-host", got.append)
        sender = TrapSender(net, "agent-host")
        sender.send(
            ("mgr-host", 162),
            TASSL.cpuHighTrap,
            [(TASSL.hostCpuLoad, Gauge32(97))],
        )
        sched.run()
        assert len(got) == 1
        n = got[0]
        assert n.trap_oid == TASSL.cpuHighTrap
        assert n.varbinds[0][0] == TASSL.hostCpuLoad
        assert n.varbinds[0][1].value == 97
        assert n.source[0] == "agent-host"

    def test_wrong_community_dropped(self, fabric):
        sched, net = fabric
        got = []
        TrapListener(net, "mgr-host", got.append, community="secret")
        TrapSender(net, "agent-host", community="public").send(
            ("mgr-host", 162), TASSL.cpuHighTrap, []
        )
        sched.run()
        assert got == []

    def test_garbage_counted_not_fatal(self, fabric):
        sched, net = fabric
        got = []
        listener = TrapListener(net, "mgr-host", got.append)
        from repro.network.udp import DatagramSocket

        junk = DatagramSocket(net, "agent-host")
        junk.sendto(b"\x00\x01garbage", ("mgr-host", 162))
        sched.run()
        assert listener.decode_failures == 1
        assert got == []

    @pytest.mark.parametrize("frame", HOSTILE_TRAPS.values(), ids=HOSTILE_TRAPS.keys())
    def test_malformed_trap_counted_not_delivered(self, fabric, frame):
        sched, net = fabric
        got = []
        listener = TrapListener(net, "mgr-host", got.append)
        DatagramSocket(net, "agent-host").sendto(frame, ("mgr-host", 162))
        sched.run()
        assert listener.decode_failures == 1
        assert listener.traps_received == 0
        assert got == []

    def test_uptime_carried(self, fabric):
        sched, net = fabric
        got = []
        TrapListener(net, "mgr-host", got.append)
        sched.call_after(5.0, lambda: None)
        sched.run()
        TrapSender(net, "agent-host").send(("mgr-host", 162), TASSL.cpuHighTrap, [])
        sched.run()
        assert got[0].uptime_ticks >= 500


class TestThresholdWatch:
    def make_watch(self, fabric, values, threshold=80.0, direction="above"):
        sched, net = fabric
        got = []
        TrapListener(net, "mgr-host", got.append)
        sender = TrapSender(net, "agent-host")
        box = {"i": 0}

        def sample():
            v = values[min(box["i"], len(values) - 1)]
            box["i"] += 1
            return v

        watch = ThresholdWatch(
            sched,
            sender,
            dest=("mgr-host", 162),
            oid=TASSL.hostPageFaults,
            sample=sample,
            threshold=threshold,
            trap_oid=TASSL.pageFaultHighTrap,
            direction=direction,
        )
        watch.interval = 1.0
        return sched, watch, got

    def test_single_crossing_single_trap(self, fabric):
        sched, watch, got = self.make_watch(fabric, [30, 90, 95, 99, 30])
        watch.start()
        sched.run_until(6.0)
        assert watch.crossings == 1
        assert len(got) == 1

    def test_rearm_after_recovery(self, fabric):
        sched, watch, got = self.make_watch(fabric, [30, 90, 30, 91, 30])
        watch.start()
        sched.run_until(6.0)
        assert watch.crossings == 2

    def test_below_direction(self, fabric):
        sched, watch, got = self.make_watch(
            fabric, [100, 100, 10, 100], threshold=50.0, direction="below"
        )
        watch.start()
        sched.run_until(5.0)
        assert watch.crossings == 1

    def test_invalid_direction(self, fabric):
        sched, net = fabric
        with pytest.raises(ValueError):
            ThresholdWatch(
                sched,
                TrapSender(net, "agent-host"),
                ("mgr-host", 162),
                TASSL.hostCpuLoad,
                lambda: 0.0,
                50.0,
                TASSL.cpuHighTrap,
                direction="sideways",
            )

    def test_stop_halts_checks(self, fabric):
        sched, watch, got = self.make_watch(fabric, [30, 30, 95])
        watch.start()
        sched.run_until(1.5)
        watch.stop()
        sched.run_until(10.0)
        assert watch.crossings == 0

    def test_stop_then_start_keeps_one_check_chain(self, fabric):
        sched, watch, got = self.make_watch(fabric, [30])
        checks = []
        sample = watch.sample
        watch.sample = lambda: checks.append(sched.clock.now) or sample()
        watch.start()
        sched.run_until(0.25)
        watch.stop()
        watch.start()  # before the pending check: it must not survive
        sched.run_until(5.25)
        assert checks == [1.25, 2.25, 3.25, 4.25, 5.25]


class TestEventDrivenAdaptation:
    def test_trap_triggers_immediate_decision(self):
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("traptest")
        client = fw.add_wired_client(
            "alice", fault_workload=Trace([30, 30, 95, 95, 30, 30, 95])
        )
        watch = fw.add_threshold_trap(client, "page_faults", threshold=80.0)
        fw.start_hosts()
        fw.run_for(8.0)
        # two independent excursions above 80 -> two traps -> two decisions
        assert watch.crossings == 2
        assert client._trap_listener.traps_received == 2
        assert [d.packets for _, d in client.decision_log] == [1, 1]

    def test_low_memory_traps_when_free_memory_falls(self):
        """``memoryLowTrap`` fires once free memory drops below the
        threshold, not while it is plentiful."""
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("traptest6")
        # free memory: 131 071 KiB at 30 faults, 39 321 KiB at 100
        client = fw.add_wired_client("alice", fault_workload=Trace([30, 30, 100, 100, 30, 30]))
        host = fw.hosts["alice"]
        watch = fw.add_threshold_trap(client, "free_memory_kib", threshold=100_000)
        assert watch.trap_oid == TASSL.memoryLowTrap
        fw.start_hosts()
        fw.run_for(1.9)
        assert host.free_memory_kib > 100_000 and watch.crossings == 0
        fw.run_for(2.0)
        assert host.free_memory_kib < 100_000 and watch.crossings == 1
        fw.run_for(2.0)
        assert host.free_memory_kib > 100_000 and watch.crossings == 1
        assert client._trap_listener.traps_received == 1

    def test_a_trap_after_leave_decides_nothing(self):
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("traptest5")
        client = fw.add_wired_client("alice", fault_workload=Trace([30, 95, 30, 95]))
        watch = fw.add_threshold_trap(client, "page_faults", threshold=80.0)
        fw.start_hosts()
        client.join()
        client.start_adaptation_loop()
        client.leave()
        fw.run_for(5.0)
        assert watch.crossings == 2  # the host's agent still sends its traps
        assert client.decision_log == []

    def test_hostile_trap_does_not_stop_the_dispatch_loop(self):
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("traptest4")
        client = fw.add_wired_client("alice")
        fw.add_threshold_trap(client, "page_faults", threshold=80.0)
        mallory = DatagramSocket(fw.network, "alice")
        mallory.sendto(HOSTILE_TRAPS["3-element varbind"], ("alice", 162))
        fw.run_for(1.0)  # raised ValueError out of the scheduler before
        assert client._trap_listener.decode_failures == 1
        assert client._trap_listener.traps_received == 0

    def test_trap_listener_idempotent(self):
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("traptest2")
        client = fw.add_wired_client("alice")
        client.enable_trap_listener()
        client.enable_trap_listener()  # no port clash

    def test_unknown_trap_parameter_rejected(self):
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("traptest3")
        client = fw.add_wired_client("alice")
        with pytest.raises(ValueError):
            fw.add_threshold_trap(client, "disk_io", threshold=1.0)
