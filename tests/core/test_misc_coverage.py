"""Coverage for smaller surfaces: the endpoint's receive-side counts,
local sketch, QoS loop with power control, switch octet probes,
telemetry + netstate."""

from repro.core.framework import CollaborationFramework
from repro.core.netstate import NetworkStateInterface
from repro.hosts.workload import Constant
from repro.media.images import collaboration_scene
from repro.media.sketch import extract_sketch
from repro.snmp.switch_binding import attach_switch_agent


class TestEndpointRtcp:
    """What the receive side counts of a peer: messages it had to abandon."""

    def test_reception_report_tracks_peer(self):
        fw = CollaborationFramework("rtcp")
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.3)
        a.share_image("img", collaboration_scene(64, 64))
        fw.run_for(2.0)
        assert b.endpoint.received_messages >= 17  # announce + 16 packets
        r = b.endpoint.wire.reassembler
        assert r.abandoned == r.behind_window == 0
        assert not r._partial

    def test_report_reflects_loss(self):
        fw = CollaborationFramework("rtcp2", seed=6)
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob", link_kwargs={"loss": 0.4})
        a.join()
        b.join()
        fw.run_for(0.3)
        for i in range(100):  # three fragments each; a lost one tears its message
            a.send_chat(f"line {i} " + "x" * 3000)
        fw.run_for(3.0)
        r = b.endpoint.wire.reassembler
        assert 0 < r.abandoned <= 100 - len(b.chat.lines)


class TestLocalSketch:
    def test_sketch_from_reconstruction(self):
        fw = CollaborationFramework("sk")
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.3)
        a.share_image("img", collaboration_scene(128, 128))
        fw.run_for(2.0)
        sketch = extract_sketch(b.viewer.reconstruct("img"))
        assert sketch.mask.any()
        assert len(sketch.encoded) < 500


class TestSwitchOctetProbes:
    def test_octet_probes_observe_traffic(self):
        fw = CollaborationFramework("oct")
        a = fw.add_wired_client(
            "alice", cpu_workload=Constant(10.0), fault_workload=Constant(5.0)
        )
        b = fw.add_wired_client("bob")
        attach_switch_agent(fw.network, "lan-switch")
        ns = NetworkStateInterface(fw.network, "alice")
        ns.add_switch_octet_probes("lan-switch", 1)
        first = ns.poll()
        a.join()
        b.join()
        a.send_chat("traffic!")
        fw.run_for(1.0)
        second = ns.poll()
        assert second["if1_in_octets"] > first["if1_in_octets"]


class TestTelemetryWithNetstate:
    def test_netstate_requests_counted(self):
        from repro.core.telemetry import deployment_report

        fw = CollaborationFramework("tns")
        a = fw.add_wired_client("alice")
        a.enable_network_monitoring()
        a.monitor_and_adapt()
        report = deployment_report(fw)
        assert report["wired_clients"]["alice"]["snmp_requests"] >= 1
