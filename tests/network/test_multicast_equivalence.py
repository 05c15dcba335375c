"""Hypothesis property: tree multicast is observably identical to flat.

The routing fabric replaces O(members) unicast fan-out with single-copy
tree replication, but the *observable* contract must not move: for any
topology, membership churn schedule, and seeded chaos plan (link flaps),
a fabric-backed group and a flat-registry group must produce

* the identical delivery set (who received which payloads),
* the identical per-receiver delivery order, and
* identical packet-disposition counters with conservation
  (``sent == delivered + dropped + duplicated``) holding in both.

Both worlds are built loss-free through the same construction path, so
every divergence is a real semantic difference in the tree data plane,
not sampling noise.  Sends, membership changes, and flap windows are
separated by a full virtual second while link delays are sub-millisecond,
so each action observes a quiescent network — the same discipline the
chaos experiment harness uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.clock import Scheduler
from repro.network.faults import (
    ChaosController,
    Corruption,
    Duplication,
    FaultPlan,
    LatencySpike,
    LinkFlap,
    Reordering,
)
from repro.network.multicast import MulticastGroup, MulticastSocket
from repro.network.routing import MulticastFabric
from repro.network.simnet import Network

GROUP = "239.7.7.7"
PORT = 5000


@st.composite
def scenarios(draw):
    """A topology + interleaved action timeline + flap schedule."""
    n_access = draw(st.integers(min_value=2, max_value=4))
    n_hosts = draw(st.integers(min_value=2, max_value=6))
    # each host hangs off one access router (single-homed)
    attach = [draw(st.integers(min_value=0, max_value=n_access - 1)) for _ in range(n_hosts)]
    # optional backup cross-link between two access routers
    cross = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=n_access - 1),
                st.integers(min_value=0, max_value=n_access - 1),
            ).filter(lambda ab: ab[0] != ab[1]),
        )
    )
    # timeline of actions at t = 1s, 2s, ...: toggle a host's membership
    # or multicast a payload from the lowest-named current member
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("toggle"), st.integers(min_value=0, max_value=n_hosts - 1)),
                st.tuples(st.just("send"), st.binary(min_size=1, max_size=8)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    # flap windows over router-router links, offset so their boundaries
    # land strictly between action ticks
    n_links = n_access + (1 if cross else 0)
    flaps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_links - 1),
                st.integers(min_value=0, max_value=len(actions)),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=3,
        )
    )
    return n_access, attach, cross, actions, flaps


def _build_world(tree, n_access, attach, cross):
    """One world: core router + access routers + hosts, loss-free links."""
    sched = Scheduler()
    net = Network(sched, seed=1234)
    fab = MulticastFabric(net)
    fab.add_domain("core")
    for i in range(n_access):
        fab.add_domain(f"d{i}", parent="core")
    fab.add_router("core0", "core", latency=0.0005)
    router_links = []
    for i in range(n_access):
        fab.add_router(f"acc{i}", f"d{i}", parent="core0", latency=0.0005)
        router_links.append((f"acc{i}", "core0"))
    if cross is not None:
        a, b = cross
        fab.connect(f"acc{a}", f"acc{b}", latency=0.002)
        router_links.append((f"acc{a}", f"acc{b}"))
    for h, r in enumerate(attach):
        fab.attach_host(f"h{h}", f"acc{r}", latency=0.0002)
    group = MulticastGroup(net, GROUP, PORT, fabric=fab if tree else None)
    return sched, net, fab, group, router_links


def _run_world(tree, n_access, attach, cross, actions, flaps):
    sched, net, fab, group, router_links = _build_world(tree, n_access, attach, cross)
    events = [
        LinkFlap(*router_links[li], start=at + 0.4, duration=dur + 0.2)
        for li, at, dur in flaps
    ]
    ChaosController(net, FaultPlan(events), seed=99).install()
    received = {f"h{h}": [] for h in range(len(attach))}
    sockets = {}
    t = 1.0
    for kind, arg in actions:
        sched.run_until(t)
        if kind == "toggle":
            host = f"h{arg}"
            if host in sockets:
                sockets.pop(host).leave()
            else:
                sockets[host] = MulticastSocket(
                    net,
                    host,
                    group,
                    on_receive=lambda d, s, h=host: received[h].append(d),
                )
        else:  # send from the lowest-named current member
            if sockets:
                sockets[min(sockets)].send(arg)
        t += 1.0
    sched.run()
    counters = (
        net.packets_sent,
        net.packets_delivered,
        net.packets_dropped,
        net.packets_duplicated,
    )
    return received, counters


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_tree_equals_flat(scenario):
    n_access, attach, cross, actions, flaps = scenario
    flat_rx, flat_counters = _run_world(False, n_access, attach, cross, actions, flaps)
    tree_rx, tree_counters = _run_world(True, n_access, attach, cross, actions, flaps)
    # identical per-receiver delivery order (hence identical delivery set)
    assert tree_rx == flat_rx
    # identical disposition counters, each conserving every logical send
    assert tree_counters == flat_counters
    sent, delivered, dropped, duplicated = tree_counters
    assert sent == delivered + dropped + duplicated


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.integers(min_value=0, max_value=2**16))
def test_tree_conservation_with_jitter(scenario, seed):
    """Per-receiver FIFO and conservation also hold with jitter > 0.

    Jittered delays differ between flat and tree paths, so absolute
    delivery *times* diverge; the per-receiver *order* and the counter
    conservation must not.
    """
    n_access, attach, cross, actions, flaps = scenario
    sched, net, fab, group, router_links = _build_world(True, n_access, attach, cross)
    for link in net.links:
        link.jitter = 0.0004
    net.rng = np.random.default_rng(seed)
    received = {f"h{h}": [] for h in range(len(attach))}
    sockets = {}
    sent_log = []
    t = 1.0
    for kind, arg in actions:
        sched.run_until(t)
        if kind == "toggle":
            host = f"h{arg}"
            if host in sockets:
                sockets.pop(host).leave()
            else:
                sockets[host] = MulticastSocket(
                    net,
                    host,
                    group,
                    on_receive=lambda d, s, h=host: received[h].append(d),
                )
        elif sockets:
            sockets[min(sockets)].send(arg)
            sent_log.append(arg)
        t += 1.0
    sched.run()
    # every receiver saw a subsequence of the send log, in send order
    for host, seen in received.items():
        it = iter(sent_log)
        assert all(any(s == got for s in it) for got in seen), (
            f"{host} delivered out of send order: {seen} vs {sent_log}"
        )
    assert net.packets_sent == (
        net.packets_delivered + net.packets_dropped + net.packets_duplicated
    )


@pytest.mark.parametrize("seed", [0, 7, 99])
def test_loopback_copy_bypasses_fault_interceptor_like_flat(seed):
    """A self-addressed copy crosses no link, so no fault may touch it.

    A second member socket on the sender's host is among the sender's
    targets.  Flat fan-out sends it a ``src == dst`` unicast, which never
    reaches the fault interceptor; the tree's copy has an empty hop path
    and must be settled by the same rule — otherwise a network-wide spike,
    reordering, duplication or corruption window perturbs the tree's
    same-host copy and draws chaos RNG the flat oracle never draws.
    """
    hosts = ["h0", "h1", "h2", "h3"]
    window = dict(start=0.5, duration=20.0)
    plan = FaultPlan(
        [
            LatencySpike(extra=0.003, **window),
            Reordering(probability=0.5, max_extra_delay=0.004, **window),
            Duplication(probability=0.5, **window),
            Corruption(probability=0.5, **window),
        ]
    )

    def run(tree):
        sched, net, _fab, group, _links = _build_world(tree, 2, [0, 0, 1, 1], None)
        chaos = ChaosController(net, plan, seed=seed)
        chaos.install()
        received = {h: [] for h in hosts}
        socks = [MulticastSocket(net, h, group) for h in hosts]
        for h in hosts:  # a second member on each host hears that host's sends
            MulticastSocket(
                net, h, group, on_receive=lambda d, s, h=h: received[h].append((sched.clock.now, s[0], d))
            )
        sends = []
        for i in range(8):
            sched.run_until(1.0 + i)
            sender = socks[i % len(socks)]
            sender.send(bytes([i]) * 8)
            sends.append((sender.host, sched.clock.now, bytes([i]) * 8))
        sched.run_until(30.0)
        counters = (
            net.packets_sent,
            net.packets_delivered,
            net.packets_dropped,
            net.packets_duplicated,
            net.copies_delivered,
        )
        return received, counters, chaos.report(), chaos.rng.bit_generator.state, sends

    flat = run(False)
    tree = run(True)
    assert tree == flat
    # the same-host copy: exactly once, at the send instant, undamaged
    received, *_rest, sends = tree
    for host in hosts:
        own = [(t, d) for t, src, d in received[host] if src == host]
        assert own == [(at, payload) for sender, at, payload in sends if sender == host]
