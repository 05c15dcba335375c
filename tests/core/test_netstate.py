"""Tests for the network-state interface and switch agent."""

import pytest

from repro.core.framework import CollaborationFramework
from repro.core.netstate import STALE_GRACE, NetworkStateInterface, Probe
from repro.core.policies import default_bandwidth_policy
from repro.hosts.workload import Constant
from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket
from repro.snmp.manager import SnmpManager
from repro.snmp.oids import MIB2, TASSL
from repro.snmp.switch_binding import attach_switch_agent


@pytest.fixture
def fw():
    framework = CollaborationFramework("nstest")
    framework.add_wired_client(
        "alice", cpu_workload=Constant(40.0), fault_workload=Constant(35.0)
    )
    framework.switch_agent = attach_switch_agent(framework.network, "lan-switch")
    return framework


class TestSwitchAgent:
    def test_iftable_visible(self, fw):
        mgr = SnmpManager(DatagramSocket(fw.network, "alice"), fw.scheduler)
        n = mgr.get_scalar("lan-switch", MIB2.ifNumber).value
        assert n == 1  # alice's access link
        descr = mgr.get_scalar("lan-switch", MIB2.ifDescr.child(1)).text()
        assert descr == "to-alice"

    def test_ifspeed_in_bits(self, fw):
        mgr = SnmpManager(DatagramSocket(fw.network, "alice"), fw.scheduler)
        speed = mgr.get_scalar("lan-switch", MIB2.ifSpeed.child(1)).value
        link = fw.network.link("alice", "lan-switch")
        assert speed == int(link.bandwidth * 8)

    def test_octet_counters_live(self, fw):
        mgr = SnmpManager(DatagramSocket(fw.network, "alice"), fw.scheduler)
        before = mgr.get_scalar("lan-switch", MIB2.ifOutOctets.child(1)).value
        # the GET itself and its response cross the link; counters move
        after = mgr.get_scalar("lan-switch", MIB2.ifOutOctets.child(1)).value
        assert after > before

    def test_walk_interfaces(self, fw):
        fw.add_wired_client("bob")
        # rebuild the agent to pick up the new link (the MIB's interface
        # table is snapshotted at attach time)
        fw.switch_agent.close()
        attach_switch_agent(fw.network, "lan-switch", read_community="pub2")
        mgr = SnmpManager(
            DatagramSocket(fw.network, "alice"), fw.scheduler, community="pub2"
        )
        # two ifDescr rows now
        out = mgr.walk("lan-switch", MIB2.ifDescr)
        assert len(out) == 2


class TestNetworkStateInterface:
    def test_standard_host_probes(self, fw):
        ns = NetworkStateInterface(fw.network, "alice")
        ns.add_standard_host_probes("alice")
        observed = ns.poll()
        assert observed["cpu_load"] == 40.0
        assert observed["page_faults"] == 35.0
        # regression (UNI003): the TASSL gauge is bytes/s on the wire but
        # the `_bps` observation key promises bits/s — the probe converts
        link = fw.network.link("alice", "lan-switch")
        assert observed["bandwidth_bps"] == pytest.approx(link.bandwidth * 8)
        assert observed["link_latency_ms"] == pytest.approx(0.5)
        assert ns.poll_count == 1
        assert ns.probe_failures == 0

    def test_switch_probe(self, fw):
        ns = NetworkStateInterface(fw.network, "alice")
        ns.add_switch_bandwidth_probe("lan-switch", 1, parameter="path_bw")
        observed = ns.poll()
        link = fw.network.link("alice", "lan-switch")
        # regression (UNI003): MIB-II ifSpeed is already bits/s — no /8
        assert observed["path_bw"] == pytest.approx(link.bandwidth * 8)

    def test_batched_one_get_per_host(self, fw):
        ns = NetworkStateInterface(fw.network, "alice")
        ns.add_standard_host_probes("alice")
        sent_before = ns.manager.requests_sent
        ns.poll()
        assert ns.manager.requests_sent == sent_before + 1  # one batched GET

    def test_dead_agent_skipped_not_fatal(self, fw):
        ns = NetworkStateInterface(fw.network, "alice")
        ns.add_standard_host_probes("alice")
        ns.add_probe(Probe("alice", TASSL.hostCpuLoad, "ghost", lambda v: 0.0))
        # point one probe at a host with no agent
        fw.network.add_node("silent")
        fw.network.add_link("silent", "lan-switch")
        ns.add_probe(Probe("silent", TASSL.hostCpuLoad, "nope"))
        observed = ns.poll()
        assert "cpu_load" in observed
        assert "nope" not in observed
        assert ns.probe_failures >= 1

    def test_last_observed_retained(self, fw):
        ns = NetworkStateInterface(fw.network, "alice")
        ns.add_standard_host_probes("alice")
        ns.poll()
        assert ns.last_observed["cpu_load"] == 40.0


class TestGracefulDegradation:
    """Stale-state grace and the dark-plane fallback (paper Sec. 5.5)."""

    def build(self, fw):
        ns = NetworkStateInterface(fw.network, "alice")
        ns.add_standard_host_probes("alice")
        return ns

    def test_stale_values_served_within_grace(self, fw):
        ns = self.build(fw)
        assert ns.poll()["cpu_load"] == 40.0
        fw.agents["alice"].crash()
        observed = ns.poll()  # two timed-out attempts advance the clock ~1.25 s
        assert observed["cpu_load"] == 40.0  # served from cache
        assert "cpu_load" in ns.stale_parameters
        assert ns.stale_served >= 1
        assert ns.is_dark and 0.0 < ns.dark_for() < STALE_GRACE
        assert not ns.degraded  # still inside the grace window

    def test_values_drop_and_degraded_past_grace(self, fw):
        ns = self.build(fw)
        ns.poll()
        fw.agents["alice"].crash()
        ns.poll()
        fw.run_for(STALE_GRACE)  # let the dark window outgrow the grace
        observed = ns.poll()
        assert "cpu_load" not in observed
        assert ns.degraded

    def test_restart_clears_dark(self, fw):
        ns = self.build(fw)
        ns.poll()
        fw.agents["alice"].crash()
        ns.poll()
        assert ns.is_dark
        fw.agents["alice"].restart()
        observed = ns.poll()
        assert observed["cpu_load"] == 40.0
        assert not ns.is_dark
        assert ns.dark_for() == 0.0
        assert not ns.degraded


class TestDegradedPolicies:
    """The conservative floor applied when the management plane is dark."""

    def test_decide_packets_caps_at_conservative(self):
        from repro.core.policies import default_policy_database

        db = default_policy_database()
        # calm host: normally a generous budget...
        assert db.decide_packets({"cpu_load": 20.0}) > 1
        # ...but capped once degraded
        assert db.decide_packets({"cpu_load": 20.0}, degraded=True) == 1
        # nothing observed at all: None normally, the floor when degraded
        assert db.decide_packets({}) is None
        assert db.decide_packets({}, degraded=True) == 1

    def test_inference_records_fallback_reason(self, fw):
        from repro.core.inference import InferenceEngine
        from repro.core.policies import default_policy_database
        from repro.core.profiles import ClientProfile

        engine = InferenceEngine(default_policy_database())
        decision = engine.infer(
            ClientProfile("c", {"role": "participant"}),
            {"cpu_load": 20.0},
            degraded=True,
        )
        assert decision.packets == 1
        assert any("conservative fallback" in r for r in decision.reasons)


class TestBandwidthPolicy:
    def test_starved_link_cuts_packets(self):
        p = default_bandwidth_policy()
        assert p.decide(512_000) == 1        # 0.5 Mb/s
        assert p.decide(4_000_000) == 4      # 4 Mb/s
        assert p.decide(100_000_000) == 16   # LAN

    def test_client_integration_bandwidth_constrains(self):
        fw = CollaborationFramework("bwtest")
        # a thin access link: 250 kB/s == 2 Mb/s
        alice = fw.add_wired_client(
            "alice",
            cpu_workload=Constant(20.0),
            fault_workload=Constant(10.0),
            link_kwargs={"bandwidth": 250_000.0},
        )
        alice.enable_network_monitoring()
        decision = alice.monitor_and_adapt()
        # host is calm, but the bandwidth policy caps the budget at 2
        assert decision.packets == 2

    def test_fat_link_does_not_constrain(self):
        fw = CollaborationFramework("bwtest2")
        alice = fw.add_wired_client(
            "alice", cpu_workload=Constant(20.0), fault_workload=Constant(10.0)
        )
        alice.enable_network_monitoring()
        assert alice.monitor_and_adapt().packets == 16

    def test_monitoring_and_host_policy_combine(self):
        fw = CollaborationFramework("bwtest3")
        alice = fw.add_wired_client(
            "alice",
            cpu_workload=Constant(20.0),
            fault_workload=Constant(95.0),     # paging: policy says 1
            link_kwargs={"bandwidth": 700_000.0},  # 5.6 Mb/s: bandwidth says 8
        )
        alice.enable_network_monitoring()
        assert alice.monitor_and_adapt().packets == 1  # most constrained wins
