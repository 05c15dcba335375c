"""Oracle for the one shortest-path routine in ``network/``.

``Network.shortest_paths`` replaced the Dijkstra inlined in
``Network.route`` and the fabric's own BFS + per-member Dijkstra; the
replaced code lives on in :mod:`tests.network.reference_paths` and these
properties pin fast == reference:

(a) ``route`` returns the reference's link list for every pair, ties
    included, under random flaps;
(b) where shortest paths are unique, a fabric, the whole-tree oracle and
    the per-member oracle driven through the same joins / leaves / flaps
    agree on everything the public surface shows (edges, anchor, members,
    RIBs, cast plans, degraded flag, epoch, every counter) after each step;
(c) where latencies tie, the whole-tree constructions may pick different
    edges than the per-member one, but they always form a tree per live
    component, spanning its member access routers, with every member at
    its shortest live latency.

(The fabric against the whole-tree oracle with ties, mid-run topology
growth and dark members is :mod:`tests.network.test_fabric_oracle`.)
"""

import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import repro
from repro.network.clock import Scheduler
from repro.network.routing import MulticastFabric
from repro.network.simnet import Network

from .reference_paths import (
    PerMemberFabric,
    ReferenceFabric,
    has_link,
    observable,
    reference_route,
)

GROUP = "g"


# ----------------------------------------------------------------------
# (a) Network.route == the loop it used to contain
# ----------------------------------------------------------------------
@st.composite
def topologies(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    # few distinct latencies: equal-cost ties are the interesting case
    lats = [draw(st.sampled_from([0.001, 0.002, 0.003])) for _ in links]
    flaps = draw(st.lists(st.integers(0, max(len(links) - 1, 0)), max_size=8))
    return n, links, lats, flaps


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_route_equals_reference(topology):
    n, links, lats, flaps = topology
    net = Network(Scheduler(), seed=0)
    names = [f"n{n - i}" for i in range(n)]  # created in reverse name order
    for name in names:
        net.add_node(name)
    for (a, b), lat in zip(links, lats):
        net.add_link(names[a], names[b], latency=lat)

    def check():
        for src in names:
            for dst in names:
                want = reference_route(net, src, dst)
                got = net.route(src, dst)
                assert got == want
                assert net.route(src, dst) == want  # cached answer too

    check()
    for li in flaps if links else ():
        a, b = links[li]
        link = net.link(names[a], names[b])
        net.set_link_up(names[a], names[b], not link.up)
        check()
    if links:
        a, b = links[0]
        net.remove_link(names[a], names[b])
        check()


# ----------------------------------------------------------------------
# (b), (c) fabric tree construction == per-member union of shortest paths
# ----------------------------------------------------------------------
@st.composite
def fabrics(draw):
    """Two-level hierarchy + random cross-links + an action sequence."""
    n_mid = draw(st.integers(min_value=1, max_value=3))
    n_acc = draw(st.integers(min_value=2, max_value=5))
    parents = [draw(st.integers(0, n_mid - 1)) for _ in range(n_acc)]
    routers = [f"m{i}" for i in range(n_mid)] + [f"a{i}" for i in range(n_acc)]
    pairs = [(a, b) for i, a in enumerate(routers) for b in routers[i + 1 :]]
    cross = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=5))
    n_hosts = draw(st.integers(min_value=2, max_value=6))
    attach = [draw(st.integers(0, n_acc - 1)) for _ in range(n_hosts)]
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("toggle"), st.integers(0, n_hosts - 1)),
                st.tuples(st.just("flap"), st.integers(0, 63)),
            ),
            min_size=1,
            max_size=14,
        )
    )
    return n_mid, parents, cross, attach, actions


def _build(fabric_cls, spec, latency_of):
    """One world; ``latency_of(i)`` is the i-th link's latency."""
    n_mid, parents, cross, attach, _ = spec
    net = Network(Scheduler(), seed=0)
    fab = fabric_cls(net)
    fab.add_domain("core")
    fab.add_router("core0", "core")
    links = []

    def lat():
        return latency_of(len(links))

    for i in range(n_mid):
        fab.add_domain(f"d{i}", parent="core")
        fab.add_router(f"m{i}", f"d{i}", parent="core0", latency=lat())
        links.append((f"m{i}", "core0"))
    for i, p in enumerate(parents):
        fab.add_router(f"a{i}", f"d{p}", parent=f"m{p}", latency=lat())
        links.append((f"a{i}", f"m{p}"))
    for a, b in cross:
        if not has_link(net, a, b):  # else: parent link already there
            fab.connect(a, b, latency=lat())
            links.append((a, b))
    for h, r in enumerate(attach):
        fab.attach_host(f"h{h}", f"a{r}", latency=lat())
        links.append((f"h{h}", f"a{r}"))
    fab.attach_host("probe", "a0", latency=lat())
    fab.create_group(GROUP)
    return net, fab, links


def _apply(net, fab, links, action):
    kind, arg = action
    if kind == "toggle":
        host = f"h{arg}"
        if host in fab.members(GROUP):
            fab.leave(GROUP, host)
        else:
            fab.join(GROUP, host)
    else:
        a, b = links[arg % len(links)]
        net.set_link_up(a, b, not net.link(a, b).up)


@settings(max_examples=80, deadline=None)
@given(fabrics())
def test_unique_paths_tree_equals_reference(spec):
    # distinct powers of two: every subset sums differently, so shortest
    # paths are unique and all constructions must agree edge for edge
    unique = lambda i: 2.0 ** (i - 30)  # noqa: E731
    worlds = [_build(cls, spec, unique) for cls in (MulticastFabric, ReferenceFabric, PerMemberFabric)]
    roots = ["probe"] + [f"h{h}" for h in range(len(spec[3]))]
    for action in spec[-1]:
        for world in worlds:
            _apply(*world, action)
        fast, whole, per_member = (observable(fab, GROUP, roots) for _, fab, _ in worlds)
        assert fast == whole
        assert fast == per_member


def _router_forest(fab):
    adj = {}
    for edge in fab.group_edges(GROUP):
        u, v = sorted(edge)
        if u in fab.routers and v in fab.routers:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return adj


def _tree_path_latency(net, adj, src, dst):
    """Latency of the unique ``src -> dst`` walk over ``adj`` (None: none)."""
    stack = [(src, None, 0.0)]
    while stack:
        node, came_from, total = stack.pop()
        if node == dst:
            return total
        for peer in adj.get(node, ()):
            if peer != came_from:
                stack.append((peer, node, total + net.link(node, peer).latency))
    return None


@settings(max_examples=80, deadline=None)
@given(fabrics(), st.lists(st.booleans(), min_size=64, max_size=64))
def test_tied_paths_tree_is_a_shortest_path_tree(spec, coin):
    # two exact binary fractions: sums are exact, ties are everywhere
    tied = lambda i: 2.0**-10 if coin[i % 64] else 2.0**-9  # noqa: E731
    net, fab, links = _build(MulticastFabric, spec, tied)
    ref_net, ref, _ = _build(PerMemberFabric, spec, tied)
    for action in spec[-1]:
        _apply(net, fab, links, action)
        _apply(ref_net, ref, links, action)
        # the two worlds may repair at different moments (a flapped link
        # can be on one tree and not the other), so re-join a probe
        # member to rebuild both from the current topology
        for world in (fab, ref):
            world.leave(GROUP, "probe")
            world.join(GROUP, "probe")
        assert fab.anchor(GROUP) == ref.anchor(GROUP)
        assert fab._group(GROUP).degraded == ref._group(GROUP).degraded
        adj = _router_forest(fab)
        # a forest: every connected piece has exactly nodes - 1 edges
        seen = set()
        for root in sorted(adj):
            if root in seen:
                continue
            piece, frontier = {root}, [root]
            while frontier:
                node = frontier.pop()
                for peer in adj[node] - piece:
                    piece.add(peer)
                    frontier.append(peer)
            seen |= piece
            assert sum(len(adj[n]) for n in piece) // 2 == len(piece) - 1
        # spanning + shortest: every member access router reaches the
        # reference's sub-anchor over the tree at the reference's latency
        for router, (sub_anchor, latency) in ref.sub_anchor_latency[GROUP].items():
            assert _tree_path_latency(net, adj, router, sub_anchor) == latency


# ----------------------------------------------------------------------
# traversal budget, hash-order independence
# ----------------------------------------------------------------------
def _wide_fabric():
    net = Network(Scheduler(), seed=0)
    fab = MulticastFabric(net)
    fab.add_domain("core")
    fab.add_router("core0", "core")
    for half in ("e", "w"):
        fab.add_domain(half, parent="core")
        fab.add_router(f"r{half}", half, parent="core0")
        for i in range(8):
            fab.add_router(f"r{half}{i}", half, parent=f"r{half}")
    access = [f"r{half}{i}" for half in ("e", "w") for i in range(8)]
    for h in range(129):
        fab.attach_host(f"h{h:03d}", access[h % 16])
    return net, fab


def test_rebuild_runs_at_most_two_traversals_per_component():
    """<= 2 traversals per component per rebuild, each root at most once per
    topology change, none in a rebuild whose roots the last change already paid for."""
    net, fab = _wide_fabric()
    calls = []
    routine = net.shortest_paths
    net.shortest_paths = lambda *a, **kw: calls.append(a) or routine(*a, **kw)
    for h in range(128):  # the anchor climbs rw0 -> rw -> core0 as routers fill
        before = len(calls)
        fab.join(GROUP, f"h{h:03d}")
        assert len(calls) - before <= 2
    assert len(calls) == len(set(calls))  # no topology event: no root searched twice
    del calls[:]
    for h in range(0, 128, 3):  # steady churn: 16 occupied access routers, 1 component
        fab.leave(GROUP, f"h{h:03d}")
        fab.join(GROUP, f"h{h:03d}")
    fab.join(GROUP, "h128")
    assert fab.rebuilds == 128 + 2 * 43 + 1
    assert calls == []
    net.set_link_up("re", "core0", False)  # one repair, now 2 components
    assert fab.repairs == 1
    assert 2 <= len(calls) <= 4
    del calls[:]
    fab.leave(GROUP, "h128")  # still partitioned, still no topology event
    assert calls == []


_TIED_SCRIPT = """
import json
from repro.network.clock import Scheduler
from repro.network.routing import MulticastFabric
from repro.network.simnet import Network

net = Network(Scheduler(), seed=0)
fab = MulticastFabric(net)
fab.add_domain("core")
fab.add_router("top", "core")
names = ["zeta", "alpha", "mu", "beta", "omega", "kappa"]
for n in names:
    fab.add_domain("d-" + n, parent="core")
    fab.add_router(n, "d-" + n, parent="top", latency=0.002)
# a ring of equal-cost cross-links: every pair has tied two-hop paths
for a, b in zip(names, names[1:] + names[:1]):
    fab.connect(a, b, latency=0.002)
for i, n in enumerate(names):
    fab.attach_host("host-" + n, n, latency=0.001)
    fab.join("g", "host-" + n)
net.set_link_up("top", "mu", False)
net.set_link_up("top", "alpha", False)
fab.leave("g", "host-omega")
net.set_link_up("top", "zeta", False)
print(json.dumps({
    "edges": sorted(sorted(e) for e in fab.group_edges("g")),
    "anchor": fab.anchor("g"),
    "stats": fab.stats(),
}, sort_keys=True))
"""


def test_tied_topology_is_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _TIED_SCRIPT],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["edges"]  # the scenario built a tree at all
