"""Slow references for ``Network.shortest_paths`` and its two callers.

These are the implementations the unification replaced, kept verbatim as
test oracles: ``reference_route`` is the Dijkstra loop that used to live
inside ``Network.route``, and :class:`ReferenceFabric` rebuilds a group
tree the old way — one BFS per component, then one early-exit Dijkstra
**per member access router**, unioning the paths.  Both sort the
neighbor set on every visit, so they also pin that the ordered adjacency
``Network`` now maintains visits neighbors in the same order.
"""

import heapq

from repro.network.routing import MulticastFabric


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
            edge = net._links[frozenset((u, v))]
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
        path.append(net._links[frozenset((p, cur))])
        cur = p
    path.reverse()
    return path


class ReferenceFabric(MulticastFabric):
    """A fabric whose ``_rebuild`` is the per-member construction.

    Everything but tree construction (anchor election, access edges,
    commit, repair triggers, data plane) is inherited, so driving a
    ``MulticastFabric`` and a ``ReferenceFabric`` through the same
    operations compares exactly the code the unification touched.
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
