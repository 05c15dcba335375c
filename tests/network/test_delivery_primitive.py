"""Hypothesis property: unicast is the chain-shaped case of tree delivery.

``Network.send`` and ``Network.cast`` are two fronts of one private
primitive (hop transit + per-target settlement).  This drives the same
packet stream through ``send(packet)`` on one network and through
``cast(packet, chain plan, [(dst, port)])`` on its twin — random chain
length (including the zero-hop, self-addressed case), seeded per-link
loss, jitter and finite bandwidth, and a seeded chaos interceptor — and
requires every observable to agree: return truthiness, disposition
counters, per-link octet / drop / delivery counters, delivery times and
payloads, and the state both RNGs are left in.
"""

from hypothesis import given, settings, strategies as st

from repro.network.clock import Scheduler
from repro.network.faults import (
    ChaosController,
    Corruption,
    Duplication,
    FaultPlan,
    LatencySpike,
    Reordering,
)
from repro.network.simnet import CastPlan, Network, Packet

PORT = 9

link_specs = st.fixed_dictionaries(
    {
        "latency": st.sampled_from([0.0002, 0.001, 0.005]),
        "jitter": st.sampled_from([0.0, 0.0004, 0.003]),
        "loss": st.sampled_from([0.0, 0.1, 0.5]),
        "bandwidth": st.sampled_from([float("inf"), 1e6, 2e4]),
    }
)


def chaos_plan(spike_link=None):
    """Reordering, duplication and corruption for the whole run, plus a
    latency spike scoped to ``spike_link`` — which only fires if the
    interceptor is shown the real hops."""
    window = dict(start=0.0, duration=1000.0)
    events = [
        Reordering(probability=0.3, max_extra_delay=0.01, **window),
        Duplication(probability=0.3, **window),
        Corruption(probability=0.3, **window),
    ]
    if spike_link is not None:
        events.append(LatencySpike(extra=0.002, links=(spike_link,), **window))
    return FaultPlan(events)


def dispositions(net):
    return (
        net.packets_sent,
        net.packets_delivered,
        net.packets_dropped,
        net.packets_duplicated,
        net.copies_delivered,
        net.packets_transmitted,
    )


def _world(links, net_seed, chaos_seed):
    sched = Scheduler()
    net = Network(sched, seed=net_seed)
    names = [f"n{i}" for i in range(len(links) + 1)]
    for name in names:
        net.add_node(name)
    for (a, b), spec in zip(zip(names, names[1:]), links):
        net.add_link(a, b, **spec)
    plan = chaos_plan((names[-2], names[-1]) if links else None)
    chaos = ChaosController(net, plan, seed=chaos_seed)
    chaos.install()
    sched.run_until(0.0)  # open the fault windows
    got = []
    net.node(names[-1]).bind(PORT, lambda p: got.append((sched.clock.now, p.src, p.payload)))
    return sched, net, chaos, names, got


def _observe(sched, net, chaos, got, returns):
    sched.run_until(2000.0)
    return {
        "returns": returns,
        "dispositions": dispositions(net),
        "links": [
            (l.tx_octets, l.rx_octets, l.dropped_packets, l.delivered_packets)
            for l in net.links
        ],
        "deliveries": got,
        "net_rng": net.rng.bit_generator.state,
        "chaos": (chaos.report(), chaos.rng.bit_generator.state),
    }


@settings(max_examples=80, deadline=None)
@given(
    links=st.lists(link_specs, min_size=0, max_size=4),
    payloads=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=12),
    gaps=st.lists(st.sampled_from([0.0, 0.0001, 0.01]), min_size=12, max_size=12),
    net_seed=st.integers(0, 2**16),
    chaos_seed=st.integers(0, 2**16),
)
def test_send_equals_chain_cast(links, payloads, gaps, net_seed, chaos_seed):
    sched_s, net_s, chaos_s, names, got_s = _world(links, net_seed, chaos_seed)
    sched_c, net_c, chaos_c, _names, got_c = _world(links, net_seed, chaos_seed)
    src, dst = names[0], names[-1]
    plan = CastPlan(src, tuple(zip(names, names[1:])))
    sent, cast = [], []
    for payload, gap in zip(payloads, gaps):
        sched_s.run_for(gap)
        sched_c.run_for(gap)
        sent.append(bool(net_s.send(Packet(src, 1, dst, PORT, payload))))
        cast.append(bool(net_c.cast(Packet(src, 1, "239.0.0.1", PORT, payload), plan, [(dst, PORT)])))
    assert _observe(sched_c, net_c, chaos_c, got_c, cast) == _observe(
        sched_s, net_s, chaos_s, got_s, sent
    )
    assert net_s.packets_sent == (
        net_s.packets_delivered + net_s.packets_dropped + net_s.packets_duplicated
    )
