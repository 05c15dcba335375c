"""The two-layer group tree against the whole-tree oracle, step by step.

``MulticastFabric`` keeps a group as a membership index plus a router
skeleton and re-derives only the skeleton; :class:`ReferenceFabric`
(:mod:`tests.network.reference_paths`) is the code it replaced, which
recomputes every edge from the member list.  The state machine drives one
world of each through the same random operations — ties in latency,
topology that grows mid-run and members whose access link is down
included — and after every step compares everything the public surface
shows: ``group_edges``, ``anchor``, ``members``, ``degraded``, epoch,
every router's ``rib_lookup``, ``plan().edges`` from every host, and the
whole ``stats()`` dict (so grafts / prunes / transfers / repairs /
rebuilds are booked identically, not just the end state).

Tier-1 runs a bounded budget; CI's "Fabric oracle (deep)" step runs the
same machine under ``--hypothesis-profile=deep`` (registered in
``tests/conftest.py``).
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.network.clock import Scheduler
from repro.network.routing import MulticastFabric
from repro.network.simnet import Network

from .reference_paths import ReferenceFabric, has_link, observable

GROUPS = ("g", "k")
#: cap on hosts and on routers, so the per-step comparison stays cheap
MAX_NODES = 12
index = st.integers(0, 63)
group = st.sampled_from(GROUPS)
#: two exact binary fractions: path sums are exact and ties are everywhere
latency = st.sampled_from([2.0**-10, 2.0**-9])


class FabricMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.worlds = []
        for cls in (MulticastFabric, ReferenceFabric):
            net = Network(Scheduler(), seed=0)
            self.worlds.append((net, cls(net)))
        self.routers = []
        self.router_links = []
        self.hosts = []  # (host, access router)
        self.both(lambda net, fab: fab.add_domain("core"))
        self._add_router("core0", "core", None, 2.0**-10)
        for m in range(2):
            self.both(lambda net, fab: fab.add_domain(f"d{m}", parent="core"))
            self._add_router(f"m{m}", f"d{m}", "core0", 2.0**-10)
            for a in range(2):
                self._add_router(f"a{m}{a}", f"d{m}", f"m{m}", 2.0**-10)
        for h, router in enumerate(("a00", "a00", "a01", "a10", "a11", "m1")):
            self._attach(f"h{h}", router, 2.0**-10)
        self.both(lambda net, fab: [fab.create_group(g) for g in GROUPS])

    # -- helpers ---------------------------------------------------------
    def both(self, op):
        for net, fab in self.worlds:
            op(net, fab)

    def _add_router(self, name, domain, parent, lat):
        self.both(lambda net, fab: fab.add_router(name, domain, parent=parent, latency=lat))
        self.routers.append(name)
        if parent is not None:
            self.router_links.append((name, parent))

    def _attach(self, host, router, lat):
        self.both(lambda net, fab: fab.attach_host(host, router, latency=lat))
        self.hosts.append((host, router))

    def _has_link(self, a, b):
        return has_link(self.worlds[0][0], a, b)

    def _toggle(self, a, b):
        up = not self.worlds[0][0].link(a, b).up
        self.both(lambda net, fab: net.set_link_up(a, b, up))

    # -- membership ------------------------------------------------------
    @rule(g=group, i=index)
    def join(self, g, i):  # a second join of a member only bumps its refcount
        host, _ = self.hosts[i % len(self.hosts)]
        self.both(lambda net, fab: fab.join(g, host))

    @rule(g=group, i=index)
    def leave(self, g, i):
        host, _ = self.hosts[i % len(self.hosts)]
        self.both(lambda net, fab: fab.leave(g, host))

    @rule(g=group, i=index)
    def join_while_access_link_is_down(self, g, i):
        host, router = self.hosts[i % len(self.hosts)]
        if self._has_link(host, router):
            self.both(lambda net, fab: net.set_link_up(host, router, False))
        self.both(lambda net, fab: fab.join(g, host))

    @rule(g=group, i=index)
    def leave_while_dark(self, g, i):
        members = self.worlds[0][1].members(g)
        if not members:
            return
        host = members[i % len(members)]
        router = self.worlds[0][1].access_router(host)
        if self._has_link(host, router):
            self.both(lambda net, fab: net.set_link_up(host, router, False))
        while host in self.worlds[0][1].members(g):  # through every refcount
            self.both(lambda net, fab: fab.leave(g, host))

    # -- flaps -----------------------------------------------------------
    @rule(i=index)
    def flap_router_link(self, i):
        if self.router_links:
            self._toggle(*self.router_links[i % len(self.router_links)])

    @rule(i=index)
    def flap_access_link(self, i):  # of a member or of a non-member
        host, router = self.hosts[i % len(self.hosts)]
        if self._has_link(host, router):
            self._toggle(host, router)

    @rule(i=index, lat=latency)
    def remove_or_restore_access_link(self, i, lat):
        host, router = self.hosts[i % len(self.hosts)]
        if self._has_link(host, router):
            self.both(lambda net, fab: net.remove_link(host, router))
        else:
            self.both(lambda net, fab: net.add_link(host, router, latency=lat))

    @rule(i=index)
    def remove_router_link(self, i):
        if self.router_links:
            a, b = self.router_links.pop(i % len(self.router_links))
            self.both(lambda net, fab: net.remove_link(a, b))

    # -- topology growth -------------------------------------------------
    @rule(i=index, j=index, lat=latency, bare=st.booleans())
    def add_shortcut(self, i, j, lat, bare):
        a, b = self.routers[i % len(self.routers)], self.routers[j % len(self.routers)]
        if a == b or self._has_link(a, b):
            return
        if bare:
            self.both(lambda net, fab: net.add_link(a, b, latency=lat))
        else:
            self.both(lambda net, fab: fab.connect(a, b, latency=lat))
        self.router_links.append((a, b))

    @rule(i=index, lat=latency)
    def attach_host(self, i, lat):
        if len(self.hosts) < MAX_NODES:
            self._attach(f"x{len(self.hosts)}", self.routers[i % len(self.routers)], lat)

    @rule(i=index, lat=latency)
    def add_router(self, i, lat):
        if len(self.routers) < MAX_NODES:
            parent = self.routers[i % len(self.routers)]
            domain = self.worlds[0][1].routers[parent].domain
            self._add_router(f"n{len(self.routers)}", domain, parent, lat)

    # -- fast == oracle --------------------------------------------------
    @invariant()
    def fast_equals_oracle(self):
        roots = [host for host, _ in self.hosts] + ["core0"]
        (_, fast), (_, oracle) = self.worlds
        for g in GROUPS:
            assert observable(fast, g, roots) == observable(oracle, g, roots)


TestFabricOracle = FabricMachine.TestCase
# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
_active = settings()
if _active.max_examples <= 100:
    TestFabricOracle.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)
