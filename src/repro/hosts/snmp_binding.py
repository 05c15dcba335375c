"""Bind a simulated host's metrics into an SNMP extension-agent MIB.

"To monitor the hosts, we have built a specialized embedded extension
agent that runs on each host and is serviced by instrumentation routines"
(paper Sec. 5.5).  This module is those instrumentation routines: it
populates a :class:`~repro.snmp.mib.MibTree` with live getters over a
:class:`~repro.hosts.host.SimulatedHost` and the host's access link, and
starts the agent on the host's network node.
"""

from __future__ import annotations

from typing import Optional

from ..network.simnet import Link, Network
from ..network.udp import DatagramSocket
from ..snmp.agent import SnmpAgent
from ..snmp.ber import Gauge32, OctetString, TimeTicks
from ..snmp.mib import MibTree
from ..snmp.oids import MIB2, TASSL
from .host import TOTAL_MEMORY_KIB, SimulatedHost

__all__ = ["build_host_mib", "attach_extension_agent"]


def build_host_mib(host: SimulatedHost, access_link: Optional[Link] = None) -> MibTree:
    """A MIB tree with live instrumentation over ``host``.

    Gauges are integers per SNMP; CPU load and page faults round to the
    nearest unit, which matches agent granularity on real systems.
    """
    tree = MibTree()
    tree.register_scalar(MIB2.sysName, OctetString(host.name.encode()), "host name")
    tree.register_scalar(
        MIB2.sysDescr,
        OctetString(b"TASSL simulated workstation (reproduction)"),
        "system description",
    )
    tree.register_callable(
        MIB2.sysUpTime,
        lambda: TimeTicks(int(host.scheduler.clock.now * 100) % 2**32),
        description="agent uptime in hundredths",
    )
    tree.register_callable(
        TASSL.hostCpuLoad,
        lambda: Gauge32(int(round(host.cpu_load))),
        description="CPU utilisation percent",
    )
    tree.register_callable(
        TASSL.hostPageFaults,
        lambda: Gauge32(int(round(host.page_faults))),
        description="page faults per interval",
    )
    tree.register_callable(
        TASSL.hostFreeMemory,
        lambda: Gauge32(host.free_memory_kib),
        description="free memory KiB",
    )
    tree.register_scalar(
        TASSL.hostTotalMemory, Gauge32(TOTAL_MEMORY_KIB), "total memory KiB"
    )
    tree.register_callable(
        TASSL.hostProcesses,
        lambda: Gauge32(host.processes),
        description="process count",
    )
    tree.register_callable(
        TASSL.hostUptime,
        lambda: TimeTicks(int(host.scheduler.clock.now * 100) % 2**32),
        description="host uptime",
    )
    if access_link is not None:
        tree.register_callable(
            TASSL.linkBandwidth,
            lambda: Gauge32(
                int(min(access_link.bandwidth, 2**32 - 1))
                if access_link.bandwidth != float("inf")
                else 2**32 - 1
            ),
            description="access link bandwidth B/s",
        )
        tree.register_callable(
            TASSL.linkLatencyUs,
            lambda: Gauge32(int(access_link.latency * 1e6)),
            description="access link latency us",
        )
        tree.register_callable(
            TASSL.linkJitterUs,
            lambda: Gauge32(int(access_link.jitter * 1e6)),
            description="access link jitter us",
        )
        tree.register_callable(
            TASSL.linkLossPpm,
            lambda: Gauge32(int(access_link.loss * 1e6)),
            description="access link loss ppm",
        )
    return tree


def attach_extension_agent(
    network: Network,
    host: SimulatedHost,
    access_link: Optional[Link] = None,
    read_community: str = "public",
    write_community: str = "private",
) -> SnmpAgent:
    """Build the MIB and start the agent on the host's node (port 161)."""
    tree = build_host_mib(host, access_link)
    sock = DatagramSocket(network, host.name)
    return SnmpAgent(
        sock, tree, read_community=read_community, write_community=write_community
    )
