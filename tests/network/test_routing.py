"""Tests for the hierarchical multicast routing fabric."""

import pytest

from repro.network import routing
from repro.network.clock import Scheduler
from repro.network.routing import MulticastFabric, RoutingError
from repro.network.simnet import Network, Packet


@pytest.fixture
def fabric():
    """Two nested domains under a core: r0 -> (re -> re1, rw -> rw1)."""
    sched = Scheduler()
    net = Network(sched, seed=1)
    fab = MulticastFabric(net)
    fab.add_domain("core")
    fab.add_domain("east", parent="core")
    fab.add_domain("west", parent="core")
    fab.add_router("r0", "core")
    fab.add_router("re", "east", parent="r0")
    fab.add_router("rw", "west", parent="r0")
    fab.add_router("re1", "east", parent="re")
    fab.add_router("rw1", "west", parent="rw")
    for h in ("e0", "e1"):
        fab.attach_host(h, "re1")
    for h in ("w0", "w1"):
        fab.attach_host(h, "rw1")
    return net, fab


class TestTopologyValidation:
    def test_duplicate_domain_rejected(self, fabric):
        _, fab = fabric
        with pytest.raises(RoutingError):
            fab.add_domain("core")

    def test_unknown_parent_domain_rejected(self, fabric):
        _, fab = fabric
        with pytest.raises(RoutingError):
            fab.add_domain("x", parent="nope")

    def test_router_requires_known_domain(self, fabric):
        _, fab = fabric
        with pytest.raises(RoutingError):
            fab.add_router("rx", "nope")

    def test_duplicate_router_rejected(self, fabric):
        _, fab = fabric
        with pytest.raises(RoutingError):
            fab.add_router("r0", "core")

    def test_attach_requires_known_router(self, fabric):
        _, fab = fabric
        with pytest.raises(RoutingError):
            fab.attach_host("h", "nope")

    def test_double_attach_rejected(self, fabric):
        _, fab = fabric
        with pytest.raises(RoutingError):
            fab.attach_host("e0", "re1")

    def test_join_requires_attached_host(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        with pytest.raises(RoutingError):
            fab.join("g", "unattached")

    def test_first_router_becomes_domain_root(self, fabric):
        _, fab = fabric
        assert fab.domains["east"].root == "re"

    def test_depth_follows_parent_chain(self, fabric):
        _, fab = fabric
        assert fab.routers["r0"].depth == 0
        assert fab.routers["re"].depth == 1
        assert fab.routers["re1"].depth == 2


class TestAnchorElection:
    def test_single_domain_anchor_is_local(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        fab.join("g", "e0")
        fab.join("g", "e1")
        # both members hang off re1: no reason to climb higher
        assert fab.anchor("g") == "re1"

    def test_lca_transfer_on_cross_domain_join(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        fab.join("g", "e0")
        assert fab.lca_transfers == 0
        fab.join("g", "w0")
        # membership now spans east+west: ownership moves to the LCA
        assert fab.anchor("g") == "r0"
        assert fab.lca_transfers == 1

    def test_anchor_returns_on_leave(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        fab.join("g", "e0")
        fab.join("g", "w0")
        fab.leave("g", "w0")
        assert fab.anchor("g") == "re1"
        assert fab.lca_transfers == 2

    def test_empty_group_has_no_anchor(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        assert fab.anchor("g") is None


class TestRib:
    def test_rib_lookup_returns_tree_neighbors(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        for h in ("e0", "w0"):
            fab.join("g", h)
        assert fab.routers["r0"].rib_lookup("g") == ("re", "rw")
        assert fab.routers["re1"].rib_lookup("g") == ("e0", "re")

    def test_off_tree_router_has_no_hops(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        fab.join("g", "e0")
        fab.join("g", "e1")
        assert fab.routers["rw1"].rib_lookup("g") == ()

    def test_rib_cache_invalidated_by_epoch(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        fab.join("g", "e0")
        router = fab.routers["re1"]
        assert router.rib_lookup("g") == ("e0",)
        fab.join("g", "e1")  # rebuild bumps the epoch
        assert router.rib_lookup("g") == ("e0", "e1")


class TestPlans:
    def test_plan_cached_until_epoch_changes(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        for h in ("e0", "w0"):
            fab.join("g", h)
        p1 = fab.plan("g", "e0")
        p2 = fab.plan("g", "e0")
        assert p1 is p2
        assert fab.plan_builds == 1
        fab.join("g", "e1")
        p3 = fab.plan("g", "e0")
        assert p3 is not p1
        assert fab.plan_builds == 2

    def test_plan_edges_parent_before_child(self, fabric):
        _, fab = fabric
        fab.create_group("g")
        for h in ("e0", "e1", "w0"):
            fab.join("g", h)
        plan = fab.plan("g", "e0")
        placed = {plan.root}
        for parent, child in plan.edges:
            assert parent in placed
            placed.add(child)
        assert {"e1", "w0"} <= placed

    def test_unknown_group_rejected(self, fabric):
        _, fab = fabric
        with pytest.raises(RoutingError):
            fab.plan("nope", "e0")

    def test_plan_cache_is_bounded(self, fabric):
        _, fab = fabric
        bound = routing.PLAN_CACHE_SIZE
        first = None
        most = 0
        for i in range(bound + 50):
            fab.join(f"g{i}", "e0")
            plan = fab.plan(f"g{i}", "e0")
            first = first or plan
            most = max(most, len(fab._plan_cache))
        assert most == bound and len(fab._plan_cache) == 50
        # a plan dropped when the table started over is rebuilt on demand, equal
        builds = fab.plan_builds
        rebuilt = fab.plan("g0", "e0")
        assert rebuilt == first and rebuilt is not first
        assert fab.plan_builds == builds + 1


class TestCastDataPlane:
    def test_tree_cost_beats_flat(self, fabric):
        net, fab = fabric
        fab.create_group("g")
        members = ["e0", "e1", "w0", "w1"]
        for h in members:
            fab.join("g", h)
        for h in members:
            net.node(h).bind(9, lambda p: None)
        fab.cast("g", Packet("e0", 1, "g", 9, b"x"), [(h, 9) for h in members[1:]])
        tree_tx = net.packets_transmitted
        for h in members[1:]:
            net.send(Packet("e0", 1, h, 9, b"x"))
        flat_tx = net.packets_transmitted - tree_tx
        assert tree_tx < flat_tx

    def test_cast_counts_targets_as_logical_sends(self, fabric):
        net, fab = fabric
        fab.create_group("g")
        for h in ("e0", "w0"):
            fab.join("g", h)
        n = fab.cast("g", Packet("e0", 1, "g", 9, b"x"), [("w0", 9)])
        assert n == 1
        assert net.packets_sent == 1
        assert (
            net.packets_sent
            == net.packets_delivered + net.packets_dropped + net.packets_duplicated
        )


class TestRepair:
    def _group(self, fab):
        fab.create_group("g")
        for h in ("e0", "e1", "w0", "w1"):
            fab.join("g", h)
        return fab._group("g")

    def test_flap_of_tree_edge_triggers_repair(self, fabric):
        net, fab = fabric
        self._group(fab)
        assert fab.repairs == 0
        net.set_link_up("re", "r0", False)
        assert fab.repairs == 1
        # east is partitioned: its members regroup under a sub-anchor
        edges = fab.group_edges("g")
        assert frozenset(("e0", "re1")) in edges  # intra-partition edge kept
        assert frozenset(("re", "r0")) not in edges

    def test_flap_of_off_tree_link_is_ignored(self, fabric):
        net, fab = fabric
        self._group(fab)
        net.add_link("re1", "rw1")  # never part of the tree
        rebuilds = fab.rebuilds
        net.set_link_up("re1", "rw1", False)
        assert fab.repairs == 0
        assert fab.rebuilds == rebuilds

    def test_reroute_over_backup_link(self, fabric):
        net, fab = fabric
        self._group(fab)
        fab.connect("re1", "rw1", latency=0.01)  # backup cross-link
        net.set_link_up("re", "r0", False)
        # east can still reach the anchor over the backup: no partition
        assert not fab._group("g").degraded
        assert frozenset(("re1", "rw1")) in fab.group_edges("g")

    def test_heal_restores_canonical_tree(self, fabric):
        net, fab = fabric
        self._group(fab)
        before = fab.group_edges("g")
        net.set_link_up("re", "r0", False)
        net.set_link_up("re", "r0", True)
        assert fab.group_edges("g") == before
        assert fab.repairs == 2

    def test_partition_then_heal_end_to_end(self, fabric):
        net, fab = fabric
        from repro.network.multicast import MulticastGroup, MulticastSocket

        group = MulticastGroup(net, "239.0.0.1", 5000, fabric=fab)
        got = []
        socks = [
            MulticastSocket(
                net, h, group, on_receive=lambda d, s, h=h: got.append((h, d))
            )
            for h in ("e0", "e1", "w0", "w1")
        ]
        net.set_link_up("re", "r0", False)
        socks[0].send(b"p")
        net.scheduler.run()
        assert sorted(got) == [("e1", b"p")]  # east-only during partition
        got.clear()
        net.set_link_up("re", "r0", True)
        socks[0].send(b"q")
        net.scheduler.run()
        assert sorted(got) == [("e1", b"q"), ("w0", b"q"), ("w1", b"q")]


class TestStats:
    def test_stats_shape(self, fabric):
        _, fab = fabric
        stats = fab.stats()
        assert stats["routers"] == 5
        assert stats["domains"] == 3
        assert stats["hosts"] == 4
        assert all(isinstance(v, int) for v in stats.values())
