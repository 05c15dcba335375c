#!/usr/bin/env python
"""Quickstart: a collaboration session in ~60 lines.

Builds a two-workstation session on the simulated LAN, exchanges chat
and whiteboard events, shares an image progressively, and shows the
inference engine adapting the receiver's packet budget to host load
observed over SNMP.  Last, the network-state interface reads a network
element too: the LAN switch's standard agent.

Run:  python examples/quickstart.py
"""

from repro import CollaborationFramework
from repro.hosts.workload import Trace
from repro.media.images import collaboration_scene
from repro.snmp.switch_binding import attach_switch_agent

def main() -> None:
    # 1. a session with a clearly defined objective (paper Sec. 2)
    fw = CollaborationFramework(
        "quickstart", objective="demonstrate adaptive collaboration"
    )

    # 2. two wired workstations; bob's host will start thrashing
    alice = fw.add_wired_client("alice")
    bob = fw.add_wired_client("bob", fault_workload=Trace([30, 30, 95]))
    alice.join()
    bob.join()
    fw.run_for(0.5)

    # 3. chat + whiteboard replicate to every matching profile
    alice.send_chat("hello bob — sharing the site plan now")
    alice.draw("arrow-1", (10.0, 10.0, 42.0, 58.0))
    fw.run_for(0.5)
    print("bob's chat:      ", bob.chat.transcript)
    print("bob's whiteboard:", bob.whiteboard.objects())

    # 4. share an image at full quality (host is calm: 16 packets pass)
    image = collaboration_scene(64, 64)
    decision = bob.monitor_and_adapt()   # SNMP -> inference -> budget
    print(f"\ncalm host:   page-fault policy allows {decision.packets} packets")
    alice.share_image("site-plan", image)
    fw.run_for(2.0)
    view = bob.viewer.viewed["site-plan"]
    view.original = image
    r = view.report()
    print(f"  received {r.packets_used} packets  "
          f"bpp={r.bpp:.2f}  CR={r.compression_ratio:.1f}  psnr={r.psnr_db:.1f} dB")

    # 5. the host starts paging heavily; the next share degrades gracefully
    fw.hosts["bob"].advance_to_tick(2)   # page faults -> 95
    decision = bob.monitor_and_adapt()
    print(f"\nthrashing:   policy cuts the budget to {decision.packets} packet(s)")
    alice.share_image("site-plan-v2", image)
    fw.run_for(2.0)
    view = bob.viewer.viewed["site-plan-v2"]
    view.original = image
    r = view.report()
    print(f"  received {r.packets_used} packet(s)  "
          f"bpp={r.bpp:.2f}  CR={r.compression_ratio:.1f}  psnr={r.psnr_db:.1f} dB")
    print("\nsemantic content preserved at both rates — that is the point.")

    # 6. the state interface reads network elements too (paper Sec. 5.5):
    #    alice polls the LAN switch's standard agent about bob's port
    attach_switch_agent(fw.network, "lan-switch")
    bob_port = 2  # ifTable rows follow the peers' sorted names: alice, bob
    netstate = alice.enable_network_monitoring("lan-switch", bob_port)
    netstate.add_switch_octet_probes("lan-switch", bob_port)
    observed = netstate.poll()
    link = fw.network.link("lan-switch", "bob")
    assert observed["if2_in_octets"] == link.rx_octets
    assert observed["if2_out_octets"] == link.tx_octets
    print(f"\nswitch port {bob_port} (to bob): {observed['bandwidth_bps'] / 1e6:.0f} Mb/s, "
          f"{observed['if2_in_octets']:.0f} octets in, {observed['if2_out_octets']:.0f} out "
          "(the link's own counters)")


if __name__ == "__main__":
    main()
