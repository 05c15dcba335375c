"""Standard-agent MIB for network elements (the LAN switch / router).

"Routers and switches have standard agents to monitor the local
parameters through instrumentation routines" (paper Sec. 5.5).  This
module exports a simulated switch's interface table in MIB-II ifTable
style: per-link ``ifDescr.<i>``, ``ifSpeed.<i>``, ``ifInOctets.<i>``,
``ifOutOctets.<i>`` — live views over the simulator's link counters —
and starts the standard agent on the element's node.
"""

from __future__ import annotations

from ..network.simnet import Network
from ..network.udp import DatagramSocket
from .agent import SnmpAgent
from .ber import Counter32, Gauge32, Integer, OctetString, TimeTicks
from .mib import MibTree
from .oids import MIB2

__all__ = ["build_switch_mib", "attach_switch_agent"]


def build_switch_mib(network: Network, element: str) -> MibTree:
    """MIB-II-style interface table over ``element``'s attached links.

    Interfaces are indexed 1..n in deterministic (sorted-peer) order.
    Octet counters are live: they read the simulator's cumulative link
    counters at GET time, exactly like a real switch ASIC's registers.
    """
    tree = MibTree()
    tree.register_scalar(MIB2.sysName, OctetString(element.encode()))
    tree.register_scalar(MIB2.sysDescr, OctetString(b"TASSL simulated LAN switch"))
    tree.register_callable(MIB2.sysUpTime, lambda: TimeTicks(int(network.scheduler.clock.now * 100) % 2**32))
    links = [l for l in network.links if element in (l.a, l.b)]
    links.sort(key=lambda l: l.other(element))
    tree.register_scalar(MIB2.ifNumber, Integer(len(links)))
    for i, link in enumerate(links, start=1):
        peer = link.other(element)
        tree.register_scalar(MIB2.ifDescr.child(i), OctetString(f"to-{peer}".encode()))
        tree.register_callable(
            MIB2.ifSpeed.child(i),
            lambda l=link: Gauge32(
                int(min(l.bandwidth * 8, 2**32 - 1))  # bits/s per MIB-II
                if l.bandwidth != float("inf")
                else 2**32 - 1
            ),
        )
        tree.register_callable(MIB2.ifInOctets.child(i), lambda l=link: Counter32(l.rx_octets % 2**32))
        tree.register_callable(MIB2.ifOutOctets.child(i), lambda l=link: Counter32(l.tx_octets % 2**32))
    return tree


def attach_switch_agent(
    network: Network,
    element: str,
    read_community: str = "public",
) -> SnmpAgent:
    """Build the standard MIB and start the agent on the element."""
    tree = build_switch_mib(network, element)
    return SnmpAgent(DatagramSocket(network, element), tree, read_community=read_community)
