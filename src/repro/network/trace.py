"""Packet tracing: pcap-style observability for the simulated network.

A :class:`PacketTracer` registers itself as ``Network.tracer`` and is
told about every logical datagram the network settles — unicast
:meth:`Network.send` and each per-target copy of a tree
:meth:`Network.cast` alike, because both end in the same delivery
primitive — with timestamp, endpoints, ports, size, and whether the
simulator dropped it.  Per-flow summaries support the kind of "who
talked to whom, how much" analysis an operator (or a test) wants after
a run, without touching any component's internals.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from .simnet import Network, Packet

__all__ = ["TraceRecord", "FlowStats", "PacketTracer"]

#: Per-packet records a :class:`PacketTracer` keeps (flows are always counted).
TRACE_CAPACITY = 100_000


@dataclass(frozen=True)
class TraceRecord:
    """One observed datagram."""

    time: float
    src: str
    src_port: int
    dst: str
    dst_port: int
    size: int
    delivered: bool


@dataclass
class FlowStats:
    """Aggregate over one (src, dst, dst_port) flow."""

    packets: int = 0
    octets: int = 0
    dropped: int = 0
    first_time: float = 0.0
    last_time: float = 0.0

    @property
    def delivered(self) -> int:
        """Packets that reached their target (once or, duplicated, more)."""
        return self.packets - self.dropped


class PacketTracer:
    """Records traffic on a :class:`~repro.network.simnet.Network`.

    Attach with :meth:`attach`.  :data:`TRACE_CAPACITY` bounds the
    per-record buffer (the flow table is always complete).

    Example
    -------
    >>> from repro.network.clock import Scheduler
    >>> sched = Scheduler(); net = Network(sched)
    >>> _ = net.add_node("a"); _ = net.add_node("b")
    >>> _ = net.add_link("a", "b")
    >>> tracer = PacketTracer(net); tracer.attach()
    >>> _ = net.send(Packet("a", 1, "b", 9, b"xyz"))
    >>> tracer.records[0].size
    31
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.records: list[TraceRecord] = []
        self.flows: dict[tuple[str, str, int], FlowStats] = defaultdict(FlowStats)
        self.total_packets = 0
        self.total_octets = 0

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Begin tracing (idempotent)."""
        self.network.tracer = self

    def record(self, packet: Packet, delivered: bool) -> None:
        """Note one settled datagram (called by the network)."""
        now = self.network.scheduler.clock.now
        self.total_packets += 1
        self.total_octets += packet.size
        if len(self.records) < TRACE_CAPACITY:
            self.records.append(
                TraceRecord(
                    time=now,
                    src=packet.src,
                    src_port=packet.src_port,
                    dst=packet.dst,
                    dst_port=packet.dst_port,
                    size=packet.size,
                    delivered=delivered,
                )
            )
        flow = self.flows[(packet.src, packet.dst, packet.dst_port)]
        if flow.packets == 0:
            flow.first_time = now
        flow.packets += 1
        flow.octets += packet.size
        flow.last_time = now
        if not delivered:
            flow.dropped += 1

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One line per flow: what the network delivered and dropped."""
        lines = [f"trace: {self.total_packets} packets, {len(self.flows)} flows"]
        for (src, dst, port), st in sorted(self.flows.items()):
            lines.append(f"  {src} -> {dst}:{port}  delivered={st.delivered} dropped={st.dropped}")
        return "\n".join(lines)
