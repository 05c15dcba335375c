"""Tests for simulated hosts, workloads, and the SNMP binding."""

import pytest

from repro.hosts.host import SimulatedHost
from repro.hosts.snmp_binding import attach_extension_agent, build_host_mib
from repro.hosts.workload import Constant, Trace
from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket
from repro.snmp.manager import SnmpManager
from repro.snmp.oids import MIB2, TASSL


class TestWorkloads:
    def test_constant(self):
        assert Constant(42.0).value(0) == 42.0
        assert Constant(42.0).value(1000) == 42.0

    def test_trace_playback_and_hold(self):
        t = Trace([1.0, 2.0, 3.0])
        assert [t.value(i) for i in range(5)] == [1.0, 2.0, 3.0, 3.0, 3.0]


class TestSimulatedHost:
    def test_initial_state(self):
        host = SimulatedHost("h", Scheduler(), cpu_workload=Constant(30.0),
                             fault_workload=Constant(40.0))
        s = host.sample()
        assert s.cpu_load == 30.0
        assert s.page_faults == 40.0
        assert 0 < s.free_memory_kib < s.total_memory_kib

    def test_periodic_ticks_advance_workload(self):
        sched = Scheduler()
        host = SimulatedHost("h", sched, cpu_workload=Trace([0.0, 25.0, 50.0, 75.0, 100.0]))
        host.start()
        sched.run_until(3.5)
        assert host.tick == 3
        assert host.cpu_load == pytest.approx(75.0)

    def test_stop_freezes(self):
        sched = Scheduler()
        host = SimulatedHost("h", sched)
        host.start()
        sched.run_until(1.5)
        host.stop()
        tick = host.tick
        sched.run_until(5.0)
        assert host.tick == tick

    def test_stop_then_start_keeps_one_tick_chain(self):
        sched = Scheduler()
        host = SimulatedHost("h", sched)
        host.start()
        sched.run_until(0.5)
        host.stop()
        host.start()  # before the pending tick: it must not survive
        sched.run_until(10.0)
        assert host.tick == 9  # 1.5, 2.5, ..., 9.5

    def test_advance_to_tick(self):
        host = SimulatedHost("h", Scheduler(), fault_workload=Trace([10, 20, 30]))
        host.advance_to_tick(2)
        assert host.page_faults == 30.0
        with pytest.raises(ValueError):
            host.advance_to_tick(-1)

    def test_memory_pressure_tracks_faults(self):
        sched = Scheduler()
        calm = SimulatedHost("a", sched, fault_workload=Constant(5.0))
        thrash = SimulatedHost("b", sched, fault_workload=Constant(110.0))
        assert thrash.free_memory_kib < calm.free_memory_kib

    def test_cpu_clamped(self):
        host = SimulatedHost("h", Scheduler(), cpu_workload=Constant(150.0))
        assert host.cpu_load == 100.0


class TestSnmpBinding:
    @pytest.fixture
    def stack(self):
        sched = Scheduler()
        net = Network(sched, seed=0)
        net.add_node("mgr")
        net.add_node("host1")
        link = net.add_link("mgr", "host1", latency=0.001, bandwidth=2e6)
        host = SimulatedHost("host1", sched, cpu_workload=Constant(64.0),
                             fault_workload=Constant(33.0))
        agent = attach_extension_agent(net, host, access_link=link)
        mgr = SnmpManager(DatagramSocket(net, "mgr"), sched)
        return sched, host, agent, mgr, link

    def test_cpu_and_faults_visible(self, stack):
        _, _, _, mgr, _ = stack
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 64
        assert mgr.get_scalar("host1", TASSL.hostPageFaults).value == 33

    def test_sysname_and_descr(self, stack):
        _, _, _, mgr, _ = stack
        assert mgr.get_scalar("host1", MIB2.sysName).text() == "host1"
        assert b"TASSL" in mgr.get_scalar("host1", MIB2.sysDescr).value

    def test_live_instrumentation(self, stack):
        _, host, _, mgr, _ = stack
        host.cpu_workload = Constant(91.0)
        host.advance_to_tick(1)
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 91

    def test_link_metrics_exported(self, stack):
        _, _, _, mgr, link = stack
        assert mgr.get_scalar("host1", TASSL.linkBandwidth).value == int(link.bandwidth)
        assert mgr.get_scalar("host1", TASSL.linkLatencyUs).value == 1000

    def test_uptime_ticks(self, stack):
        sched, _, _, mgr, _ = stack
        t1 = mgr.get_scalar("host1", MIB2.sysUpTime).value
        sched.run_until(sched.clock.now + 5.0)
        t2 = mgr.get_scalar("host1", MIB2.sysUpTime).value
        assert t2 > t1

    def test_walk_whole_extension(self, stack):
        # every extension object the agent serves is readable by GET
        _, _, agent, mgr, _ = stack
        oids = [
            TASSL.hostCpuLoad, TASSL.hostPageFaults, TASSL.hostFreeMemory, TASSL.hostTotalMemory,
            TASSL.hostProcesses, TASSL.hostUptime,
            TASSL.linkBandwidth, TASSL.linkLatencyUs, TASSL.linkJitterUs, TASSL.linkLossPpm,
        ]
        assert all(oid in agent.mib for oid in oids)
        out = mgr.get("host1", oids)
        assert [o for o, _ in out] == oids
        assert dict(out)[TASSL.hostCpuLoad].value == 64

    def test_mib_without_link(self):
        host = SimulatedHost("h", Scheduler())
        tree = build_host_mib(host, access_link=None)
        assert TASSL.hostCpuLoad in tree
        assert TASSL.linkBandwidth not in tree
