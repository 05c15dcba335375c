"""Simulated packet network: nodes, links, routing, datagram delivery.

The paper's testbed was "several Windows NT workstations on the local
network".  We replace the physical LAN with a controllable packet-level
simulator: a graph of :class:`Node` objects joined by :class:`Link` objects
carrying bandwidth, propagation latency, jitter and loss.  Datagram
delivery computes the shortest (lowest-latency) path, samples per-link loss
and jitter, sums serialization + propagation delay, and schedules delivery
on the shared :class:`~repro.network.clock.Scheduler`.

This deliberately models only what the framework above it observes —
datagram semantics (delay, reorder, loss) and per-interface counters that
the SNMP agent exports (``ifInOctets``-style octet counts).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Callable, Container, Iterable, Optional, Sequence, Union

import numpy as np

from .._recent import Recent
from .clock import Scheduler, SimulationError

if TYPE_CHECKING:
    from .trace import PacketTracer

__all__ = [
    "Address",
    "CastPlan",
    "Link",
    "Node",
    "Network",
    "NetworkError",
    "Packet",
    "PortInUseError",
]

#: A network address is just a string host name; ports live in udp.py.
Address = str

#: routes :meth:`Network.route` keeps; city-scale topologies have O(N^2)
#: host pairs, so the cache is bounded, not grow-forever
ROUTE_CACHE_SIZE = 4096
#: route-cache sentinel distinguishing "not cached" from "cached None
#: (unroutable)"
_ROUTE_MISS = object()


class NetworkError(RuntimeError):
    """Raised for malformed topology operations or unroutable sends."""


class PortInUseError(NetworkError):
    """Raised by :meth:`Node.bind` when the requested port is taken.

    Distinct from the base class so that ephemeral-port allocation can
    retry on genuine conflicts without swallowing unrelated network
    errors (closed sockets, unknown hosts) as "port occupied".
    """


@dataclass(slots=True)
class Packet:
    """A datagram in flight.

    ``payload`` is opaque ``bytes``; ``src``/``dst`` are host names and the
    port pair is carried for the socket layer to demultiplex.
    """

    src: Address
    src_port: int
    dst: Address
    dst_port: int
    payload: bytes

    @property
    def size(self) -> int:
        """Size in bytes used for serialization-delay computation.

        Includes a 28-byte IP+UDP header allowance so that tiny payloads
        still cost non-zero wire time, as on a real network.
        """
        return len(self.payload) + 28


@dataclass(frozen=True)
class CastPlan:
    """A single-copy replication schedule for one multicast transmission.

    ``root`` is the sending host; ``edges`` are ``(parent, child)``
    node pairs ordered parent-before-child outward from the root over
    the group's distribution tree (built by
    :class:`repro.network.routing.MulticastFabric`).  The plan is pure
    data, so it can be cached per ``(group, root)`` and replayed for
    every send until the tree changes.
    """

    root: Address
    edges: tuple[tuple[Address, Address], ...]


@dataclass
class Link:
    """A bidirectional link between two nodes.

    Parameters
    ----------
    bandwidth:
        Capacity in bytes/second.  ``float("inf")`` means no serialization
        delay.
    latency:
        One-way propagation delay in seconds.
    jitter:
        Standard deviation of a truncated-Gaussian perturbation added to
        the propagation delay (never allowed to make delay negative).
    loss:
        Independent per-packet drop probability in ``[0, 1)``.
    """

    a: Address
    b: Address
    bandwidth: float = float("inf")
    latency: float = 0.0005
    jitter: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise NetworkError("bandwidth must be positive")
        if self.latency < 0 or self.jitter < 0:
            raise NetworkError("latency and jitter must be non-negative")
        if not (0.0 <= self.loss < 1.0):
            raise NetworkError("loss must be in [0, 1)")
        #: administrative state; a down link carries nothing and is
        #: invisible to routing (see :meth:`Network.set_link_up`)
        self.up: bool = True
        # Cumulative counters, exported through the SNMP host agent.
        self.tx_octets: int = 0
        self.rx_octets: int = 0
        self.dropped_packets: int = 0
        self.delivered_packets: int = 0
        # FIFO transmission queue state per direction (keyed by src node):
        # the virtual time the transmitter becomes free again.
        self._busy_until: dict[Address, float] = {}
        # Last arrival time per direction: enqueue clamps to this so an
        # independently-sampled jitter draw can never land a later packet
        # before an earlier one on the same direction (per-link FIFO).
        self._last_arrival: dict[Address, float] = {}
        #: optional size-dependent loss model: ``loss_fn(size_bytes) -> p``.
        #: When set it overrides the scalar ``loss`` (used by the coupled
        #: wireless channel, where small frames ride a robust base rate).
        self.loss_fn = None

    def other(self, node: Address) -> Address:
        """The peer endpoint of ``node`` on this link."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise NetworkError(f"{node!r} is not an endpoint of {self!r}")

    def enqueue(self, src: Address, now: float, size: int, rng: np.random.Generator) -> float:
        """FIFO transmission: departure-complete time for ``size`` bytes.

        Packets entering the same link direction back-to-back serialize
        one after another (models congestion delay and preserves per-link
        FIFO order, which the RTP layer and reassembly depend on).
        Because jitter is sampled independently per packet, the raw
        arrival time of a later packet could precede an earlier one; the
        per-direction arrival clock is therefore clamped non-decreasing,
        making the FIFO promise hold even with ``jitter > 0``.
        Returns the absolute time the packet finishes the link (including
        propagation + jitter).
        """
        ser = 0.0 if self.bandwidth == inf else size / self.bandwidth
        start = self._busy_until.get(src, 0.0)
        if not start > now:  # transmitter idle: max(now, busy) without the call
            start = now
        self._busy_until[src] = start + ser
        delay = self.latency
        if self.jitter > 0.0:
            delay += abs(float(rng.normal(0.0, self.jitter)))
        arrival = start + ser + delay
        prev = self._last_arrival.get(src)
        if prev is not None and arrival < prev:
            arrival = prev
        self._last_arrival[src] = arrival
        return arrival


class Node:
    """A host attached to the network.

    Sockets register receive callbacks keyed by port through
    :mod:`repro.network.udp`; the node only demultiplexes.
    """

    def __init__(self, name: Address, network: "Network") -> None:
        self.name = name
        self.network = network
        self._port_handlers: dict[int, Callable[[Packet], None]] = {}
        #: next-port hint for ephemeral binds (see
        #: :meth:`repro.network.udp.DatagramSocket.bind_ephemeral`):
        #: shared across every socket on this host so N socket creations
        #: cost O(N) probes total instead of O(N^2)
        self.ephemeral_hint: int = 0

    def bind(self, port: int, handler: Callable[[Packet], None]) -> None:
        """Attach ``handler`` to ``port``.  One handler per port."""
        if port in self._port_handlers:
            raise PortInUseError(f"port {port} already bound on {self.name}")
        self._port_handlers[port] = handler

    def unbind(self, port: int) -> None:
        """Release ``port``.  Unknown ports are ignored."""
        self._port_handlers.pop(port, None)

    def deliver(self, packet: Packet) -> None:
        """Hand an arriving packet to the bound socket, if any.

        Packets to unbound ports are silently discarded (as UDP does).
        """
        handler = self._port_handlers.get(packet.dst_port)
        if handler is not None:
            handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.name!r}, ports={sorted(self._port_handlers)})"


class Network:
    """A routable graph of nodes and links with datagram delivery.

    Example
    -------
    >>> sched = Scheduler()
    >>> net = Network(sched, seed=7)
    >>> _ = net.add_node("alice"); _ = net.add_node("bob")
    >>> _ = net.add_link("alice", "bob", latency=0.001)
    >>> got = []
    >>> net.node("bob").bind(9, lambda p: got.append(p.payload))
    >>> net.send(Packet("alice", 1, "bob", 9, b"hi"))
    True
    >>> _ = sched.run(); got
    [b'hi']
    """

    def __init__(self, scheduler: Scheduler, seed: int = 0) -> None:
        self.scheduler = scheduler
        self.rng = np.random.default_rng(seed)
        self._nodes: dict[Address, Node] = {}
        #: the one link table: ``(a, b)`` and ``(b, a)`` both map to the
        #: link, so a lookup by ordered pair (a plan edge, a relaxed edge)
        #: allocates nothing
        self._links: dict[tuple[Address, Address], Link] = {}
        #: node -> neighbor names, kept in name order by add/remove_link so
        #: the path walk visits them deterministically without sorting
        self._adj: dict[Address, list[Address]] = {}
        self._route_cache: Recent[Optional[list[Link]]] = Recent(ROUTE_CACHE_SIZE)
        #: observers of administrative topology change, called as
        #: ``listener(a, b, up)`` after a link is added (up), removed
        #: (down), or flapped; the multicast fabric uses this to repair
        #: distribution trees instead of suffering global drops
        self._topology_listeners: list[Callable[[Address, Address, bool], None]] = []
        #: optional fault hook (see :mod:`repro.network.faults`): called as
        #: ``interceptor(packet, path, t)`` for every packet that crossed
        #: at least one link and survived routing and loss, returning the
        #: list of deliveries — ``[t]`` to deliver normally, ``[]`` to
        #: drop, two entries to duplicate.  An entry may also be
        #: ``(t, substitute_packet)`` to deliver a modified copy (payload
        #: corruption) at that time instead.
        self.delivery_interceptor: Optional[
            Callable[
                [Packet, list[Link], float],
                list[Union[float, tuple[float, Packet]]],
            ]
        ] = None
        #: the attached :class:`~repro.network.trace.PacketTracer`, told
        #: ``record(packet, delivered)`` once per logical datagram settled
        self.tracer: Optional["PacketTracer"] = None
        # Per-packet disposition counters: every send() ends in exactly
        # one of delivered / dropped / duplicated (delivered-more-than-once),
        # so sent == delivered + dropped + duplicated always holds.
        self.packets_sent: int = 0
        self.packets_delivered: int = 0
        self.packets_dropped: int = 0
        self.packets_duplicated: int = 0
        #: total delivery copies scheduled (>= packets_delivered)
        self.copies_delivered: int = 0
        #: physical link transmissions (one per link hop actually carried,
        #: lost hops excluded).  A unicast costs path-length transmissions;
        #: a tree cast costs one per live tree edge — the counter the
        #: multicast-scale experiment's pinned counts are read from.
        self.packets_transmitted: int = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(self, name: Address) -> Node:
        """Create and register a node.  Names must be unique."""
        if name in self._nodes:
            raise NetworkError(f"duplicate node {name!r}")
        node = Node(name, self)
        self._nodes[name] = node
        self._adj[name] = []
        self._route_cache.clear()
        return node

    def add_link(self, a: Address, b: Address, **kwargs) -> Link:
        """Join two existing nodes with a link (kwargs → :class:`Link`)."""
        if a not in self._nodes or b not in self._nodes:
            raise NetworkError(f"both endpoints must exist: {a!r}, {b!r}")
        if a == b:
            raise NetworkError("self-links are not allowed")
        if (a, b) in self._links:
            raise NetworkError(f"link {a!r}-{b!r} already exists")
        link = Link(a, b, **kwargs)
        self._links[a, b] = self._links[b, a] = link
        insort(self._adj[a], b)
        insort(self._adj[b], a)
        self._route_cache.clear()
        self._notify_topology(a, b, True)
        return link

    def remove_link(self, a: Address, b: Address) -> None:
        """Tear down a link (models partition / roaming disconnect)."""
        if (a, b) not in self._links:
            raise NetworkError(f"no link {a!r}-{b!r}")
        del self._links[a, b], self._links[b, a]
        self._adj[a].remove(b)
        self._adj[b].remove(a)
        self._route_cache.clear()
        self._notify_topology(a, b, False)

    def set_link_up(self, a: Address, b: Address, up: bool) -> Link:
        """Administratively flap a link without losing its counters.

        A down link is skipped by routing (traffic reroutes if the graph
        allows, otherwise sends become unroutable drops).  Used by the
        fault-injection layer for flaps and partitions; idempotent.
        """
        link = self.link(a, b)
        if link.up != up:
            link.up = up
            self._route_cache.clear()
            self._notify_topology(a, b, up)
        return link

    def add_topology_listener(
        self, listener: Callable[[Address, Address, bool], None]
    ) -> None:
        """Register ``listener(a, b, up)`` for link add/remove/flap events."""
        self._topology_listeners.append(listener)

    def _notify_topology(self, a: Address, b: Address, up: bool) -> None:
        for listener in self._topology_listeners:
            listener(a, b, up)

    def node(self, name: Address) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def link(self, a: Address, b: Address) -> Link:
        """Look up the link between two adjacent nodes."""
        try:
            return self._links[a, b]
        except KeyError:
            raise NetworkError(f"no link {a!r}-{b!r}") from None

    @property
    def nodes(self) -> list[Address]:
        """All node names, sorted for determinism."""
        return sorted(self._nodes)

    @property
    def links(self) -> list[Link]:
        """All links (order deterministic by endpoint names)."""
        return [self._links[k] for k in sorted(k for k in self._links if k[0] < k[1])]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shortest_paths(
        self,
        src: Address,
        dst: Optional[Address] = None,
        within: Optional[Container[Address]] = None,
    ) -> dict[Address, Optional[Address]]:
        """Predecessor map of lowest-latency paths from ``src`` over live links.

        The one Dijkstra in ``network/``: :meth:`route` runs it with an
        early stop at ``dst``, the multicast fabric runs it restricted to
        routers (``within``) to get a whole shortest-path tree at once.
        Every key is reachable from ``src`` (so without ``dst`` the key
        set is ``src``'s live component); following the values from a
        settled node leads back to ``src``, which maps to ``None``.
        Equal-cost ties go to the path found first, with neighbors
        visited in name order — independent of set or hash order.
        """
        dist: dict[Address, float] = {src: 0.0}
        prev: dict[Address, Optional[Address]] = {src: None}
        heap: list[tuple[float, Address]] = [(0.0, src)]
        visited: set[Address] = set()
        links = self._links
        while heap:
            d, u = heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            if u == dst:
                break
            for v in self._adj[u]:
                if within is not None and v not in within:
                    continue
                edge = links[u, v]
                if not edge.up:
                    continue
                nd = d + edge.latency
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    prev[v] = u
                    heappush(heap, (nd, v))
        return prev

    def route(self, src: Address, dst: Address) -> Optional[list[Link]]:
        """Lowest-latency path from ``src`` to ``dst`` (Dijkstra), or None.

        Routes live in a bounded :class:`~repro._recent.Recent` table (so
        arbitrarily many host pairs cannot grow memory without bound) and
        the table is emptied on any topology change.
        """
        if src not in self._nodes or dst not in self._nodes:
            raise NetworkError(f"unknown endpoint: {src!r} or {dst!r}")
        if src == dst:
            return []
        cached = self._route_cache.get((src, dst), _ROUTE_MISS)
        if cached is not _ROUTE_MISS:
            return cached
        prev = self.shortest_paths(src, dst)
        path: Optional[list[Link]] = None
        if dst in prev:
            path = []
            cur = dst
            while (p := prev[cur]) is not None:
                path.append(self._links[p, cur])
                cur = p
            path.reverse()
        self._route_cache.put((src, dst), path)
        return path

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Inject a datagram.

        Returns ``True`` if the packet was scheduled for delivery and
        ``False`` if it was dropped en route (per-link loss), dropped by
        the fault layer, or unroutable.  Loss is decided at send time for
        simplicity; the delay of a dropped packet is irrelevant to any
        observer.
        """
        hops: list[tuple[Address, Address]] = []
        node = packet.src
        for link in self.route(node, packet.dst) or ():
            child = link.other(node)
            hops.append((node, child))
            node = child
        return self._transmit(packet.src, packet.size, hops, (packet,)) == 1

    def cast(
        self,
        packet: Packet,
        plan: "CastPlan",
        targets: Sequence[tuple[Address, int]],
    ) -> int:
        """Single-copy tree delivery of one multicast transmission.

        The packet traverses each edge of ``plan`` exactly once — edges
        are ``(parent, child)`` pairs ordered parent-before-child from
        ``plan.root`` — and fans out only at branch points, so physical
        work is O(tree edges) rather than O(targets × path length).  A
        per-edge loss draw (or a down link) severs the whole subtree
        below it, exactly like a real replicating router.

        Disposition accounting stays per logical datagram: every entry
        in ``targets`` counts one ``packets_sent`` and ends in exactly
        one of delivered / dropped / duplicated, preserving the same
        conservation invariant as unicast :meth:`send`.  Targets the
        tree never reaches (severed subtree, down access link, sender's
        own host when absent from the plan) are drops.  Returns the
        number of targets scheduled for delivery.
        """
        src, src_port, payload = packet.src, packet.src_port, packet.payload
        copies = [Packet(src, src_port, host, port, payload) for host, port in targets]
        return self._transmit(plan.root, packet.size, plan.edges, copies)

    def _transmit(
        self,
        root: Address,
        size: int,
        hops: Iterable[tuple[Address, Address]],
        copies: Iterable[Packet],
    ) -> int:
        """The one delivery primitive behind :meth:`send` and :meth:`cast`.

        ``hops`` are ``(parent, child)`` pairs ordered parent-before-child
        outward from ``root`` (a chain for unicast, a tree for a cast; a pair
        whose link is gone is skipped), and ``copies`` are the logical
        datagrams of ``size`` bytes, one per target, already addressed.
        Phase one carries the bytes over each hop once: octet counters, the
        loss draw, FIFO :meth:`Link.enqueue`; a lost or down hop leaves its child
        without an arrival time, which severs everything below it.
        Phase two settles each copy at its target in exactly one of
        delivered / dropped / duplicated and tells the attached tracer.
        A copy that crossed no hop (self-addressed) is delivered at the
        current instant and never shown to the fault interceptor.
        Returns the number of copies scheduled.
        """
        scheduler = self.scheduler
        rng = self.rng
        arrival: dict[Address, float] = {root: scheduler.clock.now}
        via: dict[Address, Link] = {}  # last hop into each reached node
        get = self._links.get
        for hop in hops:
            link = get(hop)
            if link is None:
                continue
            parent, child = hop
            t = arrival.get(parent)
            if t is None or not link.up:
                continue  # upstream hop lost or link down: subtree severed
            link.tx_octets += size
            p_loss = link.loss_fn(size) if link.loss_fn is not None else link.loss
            if p_loss > 0.0 and rng.random() < p_loss:
                link.dropped_packets += 1
                continue
            arrival[child] = link.enqueue(parent, t, size, rng)
            link.rx_octets += size
            self.packets_transmitted += 1
            via[child] = link
        # read per transmission, looked up on the class at this call: the
        # bench tracer wraps Scheduler.call_at / Node.deliver in the class dict
        interceptor, tracer = self.delivery_interceptor, self.tracer
        nodes, call_at = self._nodes, scheduler.call_at
        scheduled = 0
        for packet in copies:
            self.packets_sent += 1
            dst = packet.dst
            t = arrival.get(dst)
            last = via.get(dst)
            if t is None:
                times: Sequence[Union[float, tuple[float, Packet]]] = ()
            elif last is None or interceptor is None:
                # no fault hook on the path: one copy, settled straight-line
                if tracer is not None:
                    tracer.record(packet, True)
                self.packets_delivered += 1
                self.copies_delivered += 1
                if last is not None:
                    last.delivered_packets += 1
                call_at(t, nodes[dst].deliver, packet)
                scheduled += 1
                continue
            else:
                path: list[Link] = []
                node = dst
                while node != root:
                    link = via[node]
                    path.append(link)
                    node = link.other(node)
                path.reverse()
                times = interceptor(packet, path, t)
            n = len(times)
            if tracer is not None:
                tracer.record(packet, n > 0)
            if n == 0:
                self.packets_dropped += 1
                continue
            if n == 1:
                self.packets_delivered += 1
            else:
                self.packets_duplicated += 1
            self.copies_delivered += n
            if last is not None:
                last.delivered_packets += n
            deliver = nodes[dst].deliver
            for entry in times:
                # (time, substitute) entries deliver a corrupted copy; the
                # disposition counters above are untouched — corruption is
                # neither a drop nor a duplicate
                if isinstance(entry, tuple):
                    td, sub = entry
                    call_at(td, deliver, sub)
                else:
                    call_at(entry, deliver, packet)
            scheduled += 1
        return scheduled
