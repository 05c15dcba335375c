"""The one bounded table, :class:`repro._recent.Recent`, and its users.

What is pinned:

* any sequence of ``put`` / ``get`` on a table of capacity 1-4 behaves
  as a plain dict that is emptied when a ``put`` finds it full, and the
  table never holds more than its capacity;
* a table never changes an answer: over small random topologies with
  link flaps and membership changes, ``Network.route`` and
  ``MulticastFabric.plan`` with their tables' capacity patched to 1
  answer exactly as at the default capacity.

The decode tables' own rules are in ``tests/messaging/test_recent_decodes.py``.
CI runs this file again under ``--hypothesis-profile=deep``.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro._recent import Recent
from repro.network import routing, simnet
from repro.network.clock import Scheduler

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=60, deadline=None)

MISS = object()


@BUDGET
@given(
    st.integers(1, 4),
    st.lists(st.tuples(st.booleans(), st.integers(0, 6), st.none() | st.integers()), max_size=40),
)
def test_a_table_is_a_dict_emptied_when_full(capacity, ops):
    table = Recent(capacity)
    model = {}
    for is_put, key, value in ops:
        if is_put:
            if len(model) == capacity:
                model = {}
            model[key] = value
            assert table.put(key, value) is value
        else:  # a kept None is told from a miss by the default
            assert table.get(key, MISS) is model.get(key, MISS)
        assert table == model and len(table) <= capacity


GROUPS = ("g", "k")
#: routers under the core, each an access router for two hosts
N_ROUTERS = 3
HOSTS = [f"h{i}" for i in range(2 * N_ROUTERS)]
#: what changes routes and plans: membership, and link flaps
OPS = st.tuples(st.sampled_from(["join", "leave", "flap"]), st.sampled_from(GROUPS), st.integers(0, 63))


def build(cross_links):
    """A core router, ``N_ROUTERS`` routers under it, two hosts on each,
    and ``cross_links`` between routers."""
    net = simnet.Network(Scheduler(), seed=0)
    fab = routing.MulticastFabric(net)
    fab.add_domain("core")
    fab.add_router("r", "core", latency=2.0**-10)
    for i in range(N_ROUTERS):
        fab.add_router(f"r{i}", "core", parent="r", latency=2.0**-9)
    for a, b in cross_links:
        fab.connect(f"r{a}", f"r{b}", latency=2.0**-10)
    for i, host in enumerate(HOSTS):
        fab.attach_host(host, f"r{i // 2}", latency=2.0**-10)
    for g in GROUPS:
        fab.create_group(g)
    return net, fab


def apply(net, fab, op, group, i):
    if op == "join":
        fab.join(group, HOSTS[i % len(HOSTS)])
    elif op == "leave":
        members = fab.members(group)
        if members:
            fab.leave(group, members[i % len(members)])
    else:
        links = sorted({tuple(sorted((link.a, link.b))) for link in net._links.values()})
        a, b = links[i % len(links)]
        net.set_link_up(a, b, not net.link(a, b).up)


def observe(net, fab):
    """Every route between hosts and every plan, asked in one fixed order."""
    routes = [net.route(a, b) for a in HOSTS for b in HOSTS]
    plans = [fab.plan(g, host) for g in GROUPS for host in HOSTS]
    return [None if p is None else [(link.a, link.b) for link in p] for p in routes], plans


@BUDGET
@given(
    st.lists(st.tuples(st.integers(0, N_ROUTERS - 1), st.integers(0, N_ROUTERS - 1)), max_size=3),
    st.lists(OPS, max_size=30),
)
def test_a_table_never_changes_an_answer(cross_links, ops):
    cross_links = sorted({tuple(sorted(pair)) for pair in cross_links if pair[0] != pair[1]})
    with mock.patch.object(simnet, "ROUTE_CACHE_SIZE", 1), mock.patch.object(routing, "PLAN_CACHE_SIZE", 1):
        tiny = build(cross_links)
    default = build(cross_links)
    assert tiny[0]._route_cache.capacity == tiny[1]._plan_cache.capacity == 1
    assert observe(*tiny) == observe(*default)
    for op in ops:
        apply(*tiny, *op)
        apply(*default, *op)
        assert observe(*tiny) == observe(*default)
