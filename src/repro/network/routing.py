"""Hierarchical multicast routing fabric: routers, trust domains, trees.

The paper's session layer assumes "the omnipresence of IP [multicast]"
(Sec. 5.1); the flat per-member unicast model bills every shared link
once per member and gives the fault injector no tree structure to break.
This module supplies the missing network layer, modeled on per-group
distribution-tree maintenance in GDP-style multicast simulators:

* :class:`Router` — a fabric node (backed by an ordinary
  :class:`~repro.network.simnet.Node`): :meth:`Router.rib_lookup`
  answers "which neighbors continue this group's tree from here" as a
  view of the group's two layers (below).
* :class:`TrustDomain` — an administrative grouping of routers with a
  designated root; domains nest through their roots' parents, giving the
  fabric the hierarchy that anchors (LCA) are computed over.
* :class:`MulticastFabric` — group state: create / join / graft /
  prune, anchor election as the lowest common ancestor of the member
  access routers (ownership *transfers* when membership change moves the
  LCA), and per-group distribution trees: the anchor's shortest-path
  tree over live router links (:meth:`Network.shortest_paths`), pruned
  to the branches that reach a member's access router.

**Two layers.**  A group's tree is kept as a *membership index* (access
router -> its member hosts, plus the members whose access link is down),
which ``join`` / ``leave`` / an access-link flap edit in place, and a
*router skeleton* (router-router edges), which is all a rebuild derives,
from the occupied access routers alone and never from the member list.
The shortest-path tree per root is cached until the next topology event.

**Data plane.**  A group send builds (or reuses — plans are LRU-cached
per ``(group, sender)`` and invalidated by tree epoch) a
:class:`~repro.network.simnet.CastPlan` by walking the RIB outward from
the sender, then hands it to :meth:`Network.cast`: the packet traverses
each tree edge exactly once and replicates only at branch points —
O(tree edges) physical packets per send instead of O(members × path).

**Repair.**  The fabric listens for topology changes on the network
(installed via :meth:`Network.add_topology_listener`, which the
:class:`~repro.network.faults.ChaosController` drives through
``set_link_up``).  A flap that severs a tree edge triggers a graft/prune
rebuild: members still connected to the anchor re-path around the cut,
and members partitioned away regroup under a per-partition sub-anchor so
intra-partition delivery continues — link flaps become local tree
repairs, not global drops.  Heals re-merge the partitions under the
canonical anchor.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .._recent import Recent
from .simnet import Address, CastPlan, Network, NetworkError, Packet

__all__ = ["MulticastFabric", "Router", "RoutingError", "TrustDomain"]

#: ``(group, sender) -> (epoch, CastPlan)`` entries a fabric keeps
PLAN_CACHE_SIZE = 1024


class RoutingError(NetworkError):
    """Raised for malformed fabric topology or group operations."""


@dataclass
class TrustDomain:
    """An administrative grouping of routers under one root router."""

    name: str
    parent: Optional[str] = None
    root: Optional[str] = None
    routers: set[str] = field(default_factory=set)


class Router:
    """A replicating fabric node; its RIB is a view of each group's tree."""

    def __init__(
        self, name: Address, domain: str, parent: Optional[str], fabric: "MulticastFabric"
    ) -> None:
        self.name = name
        self.domain = domain
        self.parent = parent
        self.fabric = fabric
        #: hierarchy depth (roots of top-level domains are 0)
        self.depth: int = 0

    def rib_lookup(self, group: str) -> tuple[Address, ...]:
        """Next hops continuing ``group``'s tree from this router.

        Merged from the group's skeleton links and this router's live
        member hosts, and kept until a join, leave or re-derivation drops it.
        """
        return self.fabric._next_hops(self.fabric._group(group), self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Router({self.name!r}, domain={self.domain!r}, parent={self.parent!r})"


class _GroupState:
    """Per-group tree state: membership index, anchor, skeleton, epoch."""

    __slots__ = ("addr", "refs", "by_router", "dark", "anchor", "skeleton", "links", "partitioned",
                 "epoch", "basis", "hops")

    def __init__(self, addr: str) -> None:
        self.addr = addr
        #: member host -> join refcount (several sockets may share a host)
        self.refs: dict[Address, int] = {}
        #: access router -> its member hosts, in name order
        self.by_router: dict[Address, list[Address]] = {}
        #: members whose access link is down or gone (off-tree)
        self.dark: set[Address] = set()
        self.anchor: Optional[Address] = None
        #: undirected router-router tree edges as frozensets
        self.skeleton: frozenset = frozenset()
        #: router -> sorted tuple of its skeleton neighbors
        self.links: dict[Address, tuple[Address, ...]] = {}
        #: True when some occupied access router cannot reach the anchor
        self.partitioned: bool = False
        #: bumped on every rebuild; validates cached cast plans
        self.epoch: int = 0
        #: the occupied access routers the skeleton was derived from;
        #: ``None`` after a topology event (the trees it used are gone)
        self.basis: Optional[list[Address]] = None
        #: router -> its merged next hops, filled on demand; join / leave drop
        #: their router's entry, a re-derivation (forced by topology) all
        self.hops: dict[Address, tuple[Address, ...]] = {}

    @property
    def degraded(self) -> bool:
        """Some member is off-tree: rebuild again on the next link heal."""
        return self.partitioned or bool(self.dark)


class MulticastFabric:
    """Routers + trust domains + per-group distribution trees.

    Parameters
    ----------
    network:
        The simulated network the fabric's routers and links live in.
        The fabric registers a topology listener so link flaps repair
        affected trees immediately.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.domains: dict[str, TrustDomain] = {}
        self.routers: dict[Address, Router] = {}
        #: host -> its access router
        self._access: dict[Address, Address] = {}
        self._groups: dict[str, _GroupState] = {}
        #: root router -> predecessor map over the routers; emptied on every
        #: topology event (a new router enters a tree only through a new link)
        self._trees: dict[Address, dict[Address, Optional[Address]]] = {}
        #: router -> hierarchy chain, top-level root first (parents are fixed)
        self._chains: dict[Address, list[Address]] = {}
        self._plan_cache: Recent[tuple[int, CastPlan]] = Recent(PLAN_CACHE_SIZE)
        # telemetry (deterministic)
        self.grafts = 0
        self.prunes = 0
        self.lca_transfers = 0
        self.repairs = 0
        self.rebuilds = 0
        self.plan_builds = 0
        self.casts = 0
        network.add_topology_listener(self._on_topology)

    # ------------------------------------------------------------------
    # fabric topology
    # ------------------------------------------------------------------
    def add_domain(self, name: str, parent: Optional[str] = None) -> TrustDomain:
        """Declare a trust domain, optionally nested under ``parent``."""
        if name in self.domains:
            raise RoutingError(f"duplicate domain {name!r}")
        if parent is not None and parent not in self.domains:
            raise RoutingError(f"unknown parent domain {parent!r}")
        domain = TrustDomain(name, parent=parent)
        self.domains[name] = domain
        return domain

    def add_router(
        self,
        name: Address,
        domain: str,
        parent: Optional[Address] = None,
        **link_kwargs,
    ) -> Router:
        """Create a router node in ``domain`` under hierarchy ``parent``.

        The first router of a domain becomes its root; a root's parent
        (when given) must belong to another domain, stitching the domain
        hierarchy together.  A physical link to the parent is created
        with ``link_kwargs``.
        """
        if domain not in self.domains:
            raise RoutingError(f"unknown domain {domain!r}")
        if name in self.routers:
            raise RoutingError(f"duplicate router {name!r}")
        if parent is not None and parent not in self.routers:
            raise RoutingError(f"unknown parent router {parent!r}")
        dom = self.domains[domain]
        router = Router(name, domain, parent, self)
        if parent is not None:
            router.depth = self.routers[parent].depth + 1
        self.network.add_node(name)
        if parent is not None:
            self.network.add_link(name, parent, **link_kwargs)
        if dom.root is None:
            dom.root = name
        dom.routers.add(name)
        self.routers[name] = router
        return router

    def connect(self, a: Address, b: Address, **link_kwargs):
        """Extra physical link between two routers (repair capacity)."""
        if a not in self.routers or b not in self.routers:
            raise RoutingError(f"both endpoints must be routers: {a!r}, {b!r}")
        return self.network.add_link(a, b, **link_kwargs)

    def attach_host(self, host: Address, router: Address, **link_kwargs) -> None:
        """Attach ``host`` to the fabric through access router ``router``."""
        if router not in self.routers:
            raise RoutingError(f"unknown access router {router!r}")
        if host in self.routers:
            raise RoutingError(f"{host!r} is a router, not a host")
        if host in self._access:
            raise RoutingError(f"host {host!r} already attached")
        if host not in self.network._nodes:
            self.network.add_node(host)
        self.network.add_link(host, router, **link_kwargs)
        self._access[host] = router

    def access_router(self, host: Address) -> Address:
        """The access router ``host`` is attached through."""
        try:
            return self._access[host]
        except KeyError:
            raise RoutingError(f"host {host!r} is not attached to the fabric") from None

    # ------------------------------------------------------------------
    # group membership (create / join / graft / prune)
    # ------------------------------------------------------------------
    def create_group(self, addr: str) -> None:
        """Register a group address.  Idempotent."""
        if addr not in self._groups:
            self._groups[addr] = _GroupState(addr)

    def join(self, addr: str, host: Address) -> None:
        """Graft ``host`` onto the group's tree (refcounted per host)."""
        router = self.access_router(host)  # validates attachment
        self.create_group(addr)
        state = self._groups[addr]
        state.refs[host] = state.refs.get(host, 0) + 1
        if state.refs[host] == 1:
            insort(state.by_router.setdefault(router, []), host)
            state.hops.pop(router, None)
            if self._access_link_up(host):
                self.grafts += 1
            else:
                state.dark.add(host)
            self._rebuild(state)

    def leave(self, addr: str, host: Address) -> None:
        """Prune ``host`` from the group's tree once its last socket leaves."""
        state = self._groups.get(addr)
        if state is None or host not in state.refs:
            return
        state.refs[host] -= 1
        if state.refs[host] <= 0:
            del state.refs[host]
            router = self._access[host]
            hosts = state.by_router[router]
            hosts.remove(host)
            if not hosts:
                del state.by_router[router]
            state.hops.pop(router, None)
            if host in state.dark:
                state.dark.remove(host)
            else:
                self.prunes += 1
            self._rebuild(state)

    def members(self, addr: str) -> list[Address]:
        """Member hosts of ``addr``, sorted."""
        state = self._groups.get(addr)
        return sorted(state.refs) if state is not None else []

    def group_edges(self, addr: str) -> frozenset:
        """The group's current tree edges (frozensets of endpoints)."""
        state = self._group(addr)
        return state.skeleton | {
            frozenset((host, router))
            for router, hosts in state.by_router.items()
            for host in hosts
            if host not in state.dark
        }

    def anchor(self, addr: str) -> Optional[Address]:
        """The group's anchor (LCA) router, or None with no members."""
        return self._group(addr).anchor

    def _group(self, addr: str) -> _GroupState:
        try:
            return self._groups[addr]
        except KeyError:
            raise RoutingError(f"unknown group {addr!r}") from None

    # ------------------------------------------------------------------
    # anchor election (LCA over the domain/router hierarchy)
    # ------------------------------------------------------------------
    def _chain(self, router: Address) -> list[Address]:
        """Hierarchy chain from the top-level root down to ``router``."""
        chain = self._chains.get(router)
        if chain is None:
            chain = [router]
            cur = self.routers[router].parent
            while cur is not None:
                if cur in chain:  # defensive: malformed hierarchy
                    raise RoutingError(f"hierarchy cycle through {cur!r}")
                chain.append(cur)
                cur = self.routers[cur].parent
            chain.reverse()
            self._chains[router] = chain
        return chain

    def _lca(self, routers: Iterable[Address]) -> Optional[Address]:
        """Lowest common ancestor of ``routers`` in the hierarchy forest."""
        common: Optional[list[Address]] = None
        for name in routers:
            chain = self._chain(name)
            if common is None:
                common = chain
                continue
            keep = 0
            for x, y in zip(common, chain):
                if x != y:
                    break
                keep += 1
            common = common[:keep]
            if not common:
                return None  # disjoint hierarchies
        return common[-1] if common else None

    # ------------------------------------------------------------------
    # tree construction + repair
    # ------------------------------------------------------------------
    def _access_link_up(self, host: Address) -> bool:
        router = self._access[host]
        try:
            return self.network.link(host, router).up
        except NetworkError:
            return False

    def _rebuild(self, state: _GroupState) -> None:
        """Re-elect the anchor and re-derive the router skeleton; bump epoch.

        A rebuild reads only the occupied access routers
        (``sorted(state.by_router)``) — host edges are the membership
        index's business, booked by whoever adds or removes one.  Each
        live component holding an occupied access router gets one
        shortest-path tree rooted at its sub-anchor — the group anchor
        where reachable, else the component-local LCA when it lies
        inside, else the shallowest occupied access router — and every
        such router is grafted by walking its predecessor chain up to
        the first router already on the tree, so intra-partition traffic
        still flows and the skeleton is always a forest.  The predecessor
        maps come from :meth:`_tree`, cached per root until the next
        topology event: at most two traversals per component per
        topology change, none in a steady topology.  ``partitioned`` is
        set whenever a component cannot reach the anchor, which (like a
        dark member) re-triggers a rebuild on the next link heal.  Those
        routers and the topology fix the result, so a rebuild from
        ``state.basis`` (no topology event since) only counts.
        """
        self.rebuilds += 1
        acc_routers = sorted(state.by_router)
        if acc_routers == state.basis:
            state.epoch += 1
            return
        # --- anchor election (LCA transfer on membership change) -------
        anchor = self._lca(acc_routers)
        if anchor is None and acc_routers:
            anchor = min(acc_routers, key=lambda r: (self.routers[r].depth, r))
        if state.anchor is not None and anchor is not None and anchor != state.anchor:
            self.lca_transfers += 1
        state.anchor = anchor
        # --- per-component skeleton edges -------------------------------
        edges: set[frozenset] = set()
        links: dict[Address, list[Address]] = {}
        partitioned = False
        unassigned = acc_routers
        while unassigned:
            start = unassigned[0]
            prev = self._tree(start)
            comp_members = [r for r in unassigned if r in prev]
            unassigned = [r for r in unassigned if r not in prev]
            sub_anchor = anchor if anchor in prev else None
            if sub_anchor is None:
                partitioned = True  # anchor unreachable: partition sub-tree
                sub_anchor = self._lca(comp_members)
                if sub_anchor is None or sub_anchor not in prev:
                    sub_anchor = min(comp_members, key=lambda r: (self.routers[r].depth, r))
            if sub_anchor != start:
                prev = self._tree(sub_anchor)
            on_tree = {sub_anchor}
            for node in comp_members:
                while node not in on_tree:
                    on_tree.add(node)
                    up = prev[node]
                    assert up is not None  # only the sub-anchor maps to None, and it is on the tree
                    edges.add(frozenset((node, up)))
                    links.setdefault(node, []).append(up)
                    links.setdefault(up, []).append(node)
                    node = up
        # --- commit ------------------------------------------------------
        skeleton = frozenset(edges)
        self.grafts += len(skeleton - state.skeleton)
        self.prunes += len(state.skeleton - skeleton)
        state.skeleton = skeleton
        state.links = {node: tuple(sorted(peers)) for node, peers in links.items()}
        state.partitioned = partitioned
        state.basis = acc_routers
        state.hops.clear()
        state.epoch += 1

    def _tree(self, root: Address) -> dict[Address, Optional[Address]]:
        """Shortest-path predecessor map from ``root`` over live router links."""
        prev = self._trees.get(root)
        if prev is None:
            prev = self._trees[root] = self.network.shortest_paths(root, within=self.routers)
        return prev

    def _on_topology(self, a: Address, b: Address, up: bool) -> None:
        """Network topology-change hook: repair affected group trees.

        A heal can only improve connectivity, so only degraded trees
        (somebody off-tree) re-merge on one; a cut matters when it hits
        a skeleton edge or a live member's access edge.
        """
        self._trees.clear()
        key = frozenset((a, b))
        for addr in sorted(self._groups):
            state = self._groups[addr]
            state.basis = None
            if not state.refs:
                continue
            repair = state.degraded if up else key in state.skeleton
            for host, router in ((a, b), (b, a)):
                if (
                    host in state.refs
                    and self._access[host] == router
                    and self._access_link_up(host) == (host in state.dark)
                ):
                    repair = True  # a member's access edge changed state
                    if host in state.dark:
                        state.dark.remove(host)
                        self.grafts += 1
                    else:
                        state.dark.add(host)
                        self.prunes += 1
            if repair:
                self.repairs += 1
                self._rebuild(state)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _next_hops(self, state: _GroupState, node: Address) -> tuple[Address, ...]:
        """``node``'s tree neighbors in name order, merged from the two layers."""
        if node in state.refs:  # a member host is a leaf on its access router
            return () if node in state.dark else (self._access[node],)
        hops = state.hops.get(node)
        if hops is None:
            hops = state.links.get(node, ())
            live = [h for h in state.by_router.get(node, ()) if h not in state.dark]
            if live:
                hops = tuple(sorted([*hops, *live]))
            state.hops[node] = hops
        return hops

    def plan(self, addr: str, root: Address) -> CastPlan:
        """The cast plan for a send by ``root`` — cached per tree epoch.

        Built by walking the tree (what :meth:`Router.rib_lookup` answers
        from) outward from the sender's host, emitting edges
        parent-before-child; the walk only ever touches the sender's side
        of a partitioned tree, exactly like a real replication would.
        Member hosts are leaves, so only routers are expanded further.
        """
        state = self._group(addr)
        entry = self._plan_cache.get((addr, root))
        if entry is not None and entry[0] == state.epoch:
            return entry[1]
        self.plan_builds += 1
        edges: list[tuple[Address, Address]] = []
        visited = {root}
        frontier = [root]
        routers = self.routers
        while frontier:
            nxt = []
            for node in frontier:
                for hop in self._next_hops(state, node):
                    if hop in visited:
                        continue
                    edges.append((node, hop))
                    if hop in routers:
                        visited.add(hop)
                        nxt.append(hop)
            frontier = nxt
        built = CastPlan(root, tuple(edges))
        self._plan_cache.put((addr, root), (state.epoch, built))
        return built

    def cast(
        self, addr: str, packet: Packet, targets: list[tuple[Address, int]]
    ) -> int:
        """Send ``packet`` down the group tree to ``targets``.

        Returns the number of targets scheduled for delivery (the rest
        were dropped: lossy edge, severed subtree, or down access link).
        """
        self.casts += 1
        return self.network.cast(packet, self.plan(addr, packet.src), targets)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Deterministic counter snapshot (sorted keys, ints only)."""
        return {
            "casts": self.casts,
            "domains": len(self.domains),
            "grafts": self.grafts,
            "groups": len(self._groups),
            "hosts": len(self._access),
            "lca_transfers": self.lca_transfers,
            "plan_builds": self.plan_builds,
            "prunes": self.prunes,
            "rebuilds": self.rebuilds,
            "repairs": self.repairs,
            "routers": len(self.routers),
        }
