"""Slow references for ``Network.shortest_paths``, its callers, and the group tree.

These are implementations that faster code replaced, kept verbatim as
test oracles:

* ``reference_route`` is the Dijkstra loop that used to live inside
  ``Network.route``;
* :class:`ReferenceFabric` is the fabric's group state as it was before
  the two-layer (membership index + router skeleton) representation: one
  flat edge set and one adjacency dict, both recomputed wholesale from
  the member list on every membership change and repair.  Inputs of a
  rebuild: the members, the access map, the live links.  Outputs: edges,
  anchor, degraded, and the graft / prune / LCA-transfer deltas;
* :class:`PerMemberFabric` swaps that oracle's tree construction for the
  still older one — one BFS per component, then one early-exit Dijkstra
  **per member access router**, unioning the paths.

The Dijkstra references sort the neighbor set on every visit, so they
also pin that the ordered adjacency ``Network`` maintains visits
neighbors in the same order.  Compare a fabric with an oracle through
:func:`observable`, never through group-state attributes: the two keep
different state.
"""

import heapq

from repro.network.routing import MulticastFabric, RoutingError
from repro.network.simnet import CastPlan, NetworkError


def has_link(net, a, b):
    """Whether ``a``-``b`` are joined, asked through the public lookup."""
    try:
        net.link(a, b)
    except NetworkError:
        return False
    return True


def reference_route(net, src, dst):
    """The pre-unification ``Network.route`` body, minus its cache."""
    if src == dst:
        return []
    dist = {src: 0.0}
    prev = {}
    heap = [(0.0, src)]
    visited = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        if u == dst:
            break
        for v in sorted(net._adj[u]):
            edge = net.link(u, v)
            if not edge.up:
                continue
            nd = d + edge.latency
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if dst not in dist:
        return None
    path = []
    cur = dst
    while cur != src:
        p = prev[cur]
        path.append(net.link(p, cur))
        cur = p
    path.reverse()
    return path


def observable(fab, group, roots=()):
    """Everything a fabric shows of ``group``, read off its public surface."""
    state = fab._group(group)
    return {
        "edges": fab.group_edges(group),
        "anchor": fab.anchor(group),
        "members": fab.members(group),
        "degraded": state.degraded,
        "epoch": state.epoch,
        "rib": {name: fab.routers[name].rib_lookup(group) for name in sorted(fab.routers)},
        "plans": {root: fab.plan(group, root).edges for root in roots},
        "stats": fab.stats(),  # after the plans: they count in plan_builds
    }


class _FlatGroupState:
    """The pre-two-layer ``_GroupState``: everything derived from ``refs``."""

    def __init__(self, addr):
        self.addr = addr
        self.refs = {}
        self.anchor = None
        self.edges = frozenset()
        self.adjacency = {}
        self.epoch = 0
        self.degraded = False


class ReferenceFabric(MulticastFabric):
    """Whole-tree oracle: every change rebuilds every edge from the member list.

    Topology building, counters and ``stats()`` are inherited; group
    state, membership, anchor election, tree construction, repair
    triggers, the RIB view and plan building are the replaced code.
    """

    def create_group(self, addr):
        if addr not in self._groups:
            self._groups[addr] = _FlatGroupState(addr)

    def join(self, addr, host):
        self.access_router(host)  # validates attachment
        self.create_group(addr)
        state = self._groups[addr]
        state.refs[host] = state.refs.get(host, 0) + 1
        if state.refs[host] == 1:
            self._rebuild(state)

    def leave(self, addr, host):
        state = self._groups.get(addr)
        if state is None or host not in state.refs:
            return
        state.refs[host] -= 1
        if state.refs[host] <= 0:
            del state.refs[host]
            self._rebuild(state)

    def group_edges(self, addr):
        return self._group(addr).edges

    def _next_hops(self, state, node):
        return state.adjacency.get(node, ())

    def _ancestry(self, router):
        chain = [router]
        seen = {router}
        cur = self.routers[router].parent
        while cur is not None:
            if cur in seen:
                raise RoutingError(f"hierarchy cycle through {cur!r}")
            chain.append(cur)
            seen.add(cur)
            cur = self.routers[cur].parent
        return chain

    def _lca(self, routers):
        names = sorted(set(routers))
        if not names:
            return None
        common = None
        for name in names:
            chain = list(reversed(self._ancestry(name)))  # root .. router
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

    def _router_edges(self, state, acc_routers):
        """Per-component shortest-path trees -> (router edges, degraded)."""
        edges = set()
        degraded = False
        unassigned = acc_routers
        while unassigned:
            start = unassigned[0]
            prev = self.network.shortest_paths(start, within=self.routers)
            comp_members = [r for r in unassigned if r in prev]
            unassigned = [r for r in unassigned if r not in prev]
            if state.anchor in prev:
                sub_anchor = state.anchor
            else:
                degraded = True  # anchor unreachable: partition sub-tree
                candidate = self._lca(comp_members)
                if candidate is None or candidate not in prev:
                    candidate = min(
                        comp_members, key=lambda r: (self.routers[r].depth, r)
                    )
                sub_anchor = candidate
            if sub_anchor != start:
                prev = self.network.shortest_paths(sub_anchor, within=self.routers)
            on_tree = {sub_anchor}
            for node in comp_members:
                while node not in on_tree:
                    on_tree.add(node)
                    edges.add(frozenset((node, prev[node])))
                    node = prev[node]
        return edges, degraded

    def _rebuild(self, state):
        self.rebuilds += 1
        hosts = sorted(state.refs)
        old_edges = state.edges
        access = {h: self._access[h] for h in hosts}
        acc_routers = sorted(set(access.values()))
        anchor = self._lca(acc_routers)
        if anchor is None and acc_routers:
            anchor = min(acc_routers, key=lambda r: (self.routers[r].depth, r))
        if anchor != state.anchor and hosts:
            if state.anchor is not None and anchor is not None:
                self.lca_transfers += 1
            state.anchor = anchor
        elif not hosts:
            state.anchor = None
        edges, degraded = self._router_edges(state, acc_routers)
        for host in hosts:
            if self._access_link_up(host):
                edges.add(frozenset((host, access[host])))
            else:
                degraded = True
        new_edges = frozenset(edges)
        self.grafts += len(new_edges - old_edges)
        self.prunes += len(old_edges - new_edges)
        state.edges = new_edges
        adjacency = {}
        for edge in new_edges:
            u, v = sorted(edge)
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        state.adjacency = {
            node: tuple(sorted(peers)) for node, peers in sorted(adjacency.items())
        }
        state.degraded = degraded
        state.epoch += 1

    def _on_topology(self, a, b, up):
        key = frozenset((a, b))
        for addr in sorted(self._groups):
            state = self._groups[addr]
            if not state.refs:
                continue
            if up:
                if state.degraded:
                    self.repairs += 1
                    self._rebuild(state)
            elif key in state.edges:
                self.repairs += 1
                self._rebuild(state)

    def plan(self, addr, root):
        state = self._group(addr)
        entry = self._plan_cache.get((addr, root))
        if entry is not None and entry[0] == state.epoch:
            return entry[1]
        self.plan_builds += 1
        edges = []
        visited = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for node in frontier:
                for hop in state.adjacency.get(node, ()):
                    if hop in visited:
                        continue
                    visited.add(hop)
                    edges.append((node, hop))
                    nxt.append(hop)
            frontier = nxt
        built = CastPlan(root, tuple(edges))
        self._plan_cache.put((addr, root), (state.epoch, built))
        return built


class PerMemberFabric(ReferenceFabric):
    """The oracle with the per-member tree construction.

    ``sub_anchor_latency[group]`` records, per member access router, the
    sub-anchor it was grafted to and the latency of the path found.
    """

    def __init__(self, network):
        super().__init__(network)
        self.sub_anchor_latency = {}

    def _live_router_neighbors(self, router):
        out = []
        for peer in sorted(self.network._adj.get(router, ())):
            if peer in self.routers and self.network.link(router, peer).up:
                out.append(peer)
        return out

    def _component(self, start):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for peer in self._live_router_neighbors(node):
                    if peer not in seen:
                        seen.add(peer)
                        nxt.append(peer)
            frontier = nxt
        return seen

    def _shortest_router_path(self, src, dst):
        if src == dst:
            return [src]
        dist = {src: 0.0}
        prev = {}
        heap = [(0.0, src)]
        visited = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            if u == dst:
                break
            for v in self._live_router_neighbors(u):
                nd = d + self.network.link(u, v).latency
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        if dst not in dist:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def _router_edges(self, state, acc_routers):
        edges = set()
        degraded = False
        unassigned = [r for r in acc_routers]
        components = []
        while unassigned:
            comp = self._component(unassigned[0])
            components.append(comp)
            unassigned = [r for r in unassigned if r not in comp]
        if len(components) > 1:
            degraded = True
        grafted = self.sub_anchor_latency[state.addr] = {}
        for comp in components:
            comp_members = [r for r in acc_routers if r in comp]
            if state.anchor is not None and state.anchor in comp:
                sub_anchor = state.anchor
            else:
                degraded = True
                candidate = self._lca(comp_members)
                if candidate is None or candidate not in comp:
                    candidate = min(
                        comp_members, key=lambda r: (self.routers[r].depth, r)
                    )
                sub_anchor = candidate
            for router in comp_members:
                path = self._shortest_router_path(router, sub_anchor)
                assert path is not None  # same component
                hops = list(zip(path, path[1:]))
                grafted[router] = (
                    sub_anchor,
                    sum(self.network.link(u, v).latency for u, v in hops),
                )
                edges.update(frozenset(hop) for hop in hops)
        return edges, degraded
