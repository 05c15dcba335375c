"""Property tests: every broker backend decides like a linear scan.

The matching engine is only allowed to *narrow where the interpreter
looks*, never to change what it decides.  This drives randomized
profile populations and selectors through an indexed and an unindexed
:class:`~repro.messaging.broker.SemanticBus` and requires identical
deliveries, per-subscriber counters, and publish results — including
after mid-run profile mutations (exercising the watch/reindex path).
The sharded batch bus and the networked endpoint's local subscriptions
are held to the same linear oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.core.matching import interpret
from repro.core.profiles import ClientProfile, TransformRule
from repro.core.selectors import Selector
from repro.messaging.broker import SemanticBus
from repro.messaging.message import SemanticMessage

ROLES = ["medic", "clerk", "command", "observer"]
ENCODINGS = ["jpeg", "mpeg2", "pcm"]

attr_values = st.one_of(
    st.sampled_from(ROLES),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.lists(st.sampled_from(ENCODINGS), max_size=3).map(tuple),
)

profile_attrs = st.dictionaries(
    st.sampled_from(["role", "battery", "tier", "urgent", "caps", "enc"]),
    attr_values,
    max_size=4,
)

# a grab-bag of selector shapes: indexable conjunctions, disjunctions and
# negations (linear fallback), constants, list ops, flipped literals
SELECTORS = [
    "true",
    "false",
    "role == 'medic'",
    "'medic' == role",
    "role != 'medic'",
    "battery >= 2",
    "3 > battery",
    "battery >= 0 and battery <= 3",
    "role == 'medic' and battery > 1",
    "role == 'medic' or role == 'clerk'",
    "not role == 'medic'",
    "urgent",
    "urgent == true",
    "exists(caps)",
    "caps contains 'jpeg'",
    "enc in ['jpeg', 'pcm']",
    "role in ['medic', 'command'] and tier <= 2",
    "role == 'medic' and (tier == 1 or tier == 2)",
    "tier == 1 and tier == 1.0",
    "battery == 2 and role == role",
]


@settings(max_examples=60, deadline=None)
@given(
    populations=st.lists(profile_attrs, min_size=0, max_size=8),
    selector=st.sampled_from(SELECTORS),
    mutate=st.one_of(st.none(), st.tuples(st.integers(0, 7), profile_attrs)),
)
def test_indexed_and_linear_buses_agree(populations, selector, mutate):
    indexed = SemanticBus(indexed=True)
    linear = SemanticBus(indexed=False)
    got_indexed, got_linear = [], []
    subs_i, subs_l = [], []
    for i, attrs in enumerate(populations):
        pi = ClientProfile(f"c{i}", dict(attrs))
        pl = ClientProfile(f"c{i}", dict(attrs))
        subs_i.append(indexed.attach(pi, lambda d, i=i: got_indexed.append((i, d.result.decision))))
        subs_l.append(linear.attach(pl, lambda d, i=i: got_linear.append((i, d.result.decision))))

    if mutate is not None and populations:
        idx, new_attrs = mutate
        idx %= len(populations)
        subs_i[idx].profile.update(**dict(new_attrs))
        subs_l[idx].profile.update(**dict(new_attrs))

    msg = SemanticMessage.create("s", selector, headers={"enc": "jpeg"})
    res_i = indexed.publish(msg)
    res_l = linear.publish(msg)

    assert got_indexed == got_linear
    assert (res_i.delivered, res_i.transformed, res_i.rejected) == (
        res_l.delivered,
        res_l.transformed,
        res_l.rejected,
    )
    for si, sl in zip(subs_i, subs_l):
        assert (si.accepted, si.transformed, si.rejected) == (
            sl.accepted,
            sl.transformed,
            sl.rejected,
        )


@settings(max_examples=60, deadline=None)
@given(
    populations=st.lists(profile_attrs, min_size=0, max_size=8),
    selector_batch=st.lists(st.sampled_from(SELECTORS), min_size=1, max_size=4),
    nshards=st.sampled_from([1, 2, 3, 5, 8]),
)
def test_sharded_batch_agrees_with_linear_bus(populations, selector_batch, nshards):
    """Sharding + batching may only re-phase the work, never the outcome.

    One ``publish_many`` on a :class:`ShardedSemanticBus` must produce
    the same decisions, the same *global delivery order*, the same
    per-message results, and the same per-subscriber counters as
    publishing the batch message-by-message on an unindexed linear bus —
    for any shard count, including shard-skipped and linear-fallback
    selectors.
    """
    from repro.messaging.sharded import ShardedSemanticBus

    linear = SemanticBus(indexed=False)
    sharded = ShardedSemanticBus(shards=nshards)
    got_linear, got_sharded = [], []
    subs_l, subs_s = [], []
    for i, attrs in enumerate(populations):
        pl = ClientProfile(f"c{i}", dict(attrs))
        ps = ClientProfile(f"c{i}", dict(attrs))
        subs_l.append(linear.attach(pl, lambda d, i=i: got_linear.append((i, d.message.msg_id, d.result.decision))))
        subs_s.append(sharded.attach(ps, lambda d, i=i: got_sharded.append((i, d.message.msg_id, d.result.decision))))

    batch = [
        SemanticMessage.create("s", text, headers={"enc": "jpeg"})
        for text in selector_batch
    ]
    res_l = [linear.publish(m) for m in batch]
    res_s = sharded.publish_many(batch)

    assert got_sharded == got_linear
    assert len(res_s.results) == len(res_l)
    for rl, rs in zip(res_l, res_s):
        assert (rl.delivered, rl.transformed, rl.rejected) == (
            rs.delivered,
            rs.transformed,
            rs.rejected,
        )
    for sl, ss in zip(subs_l, subs_s):
        assert (sl.accepted, sl.transformed, sl.rejected) == (
            ss.accepted,
            ss.transformed,
            ss.rejected,
        )


consumers = st.tuples(
    profile_attrs,
    st.sampled_from([None, "enc == 'jpeg'", "enc == 'pcm' or urgent"]),
    st.sampled_from([(), (TransformRule("enc", "mpeg2", "jpeg"),)]),
)


@settings(max_examples=60, deadline=None)
@given(
    population=st.lists(consumers, min_size=1, max_size=6),
    stream=st.lists(
        st.tuples(st.sampled_from(SELECTORS), st.sampled_from(ENCODINGS)),
        min_size=1,
        max_size=6,
    ),
)
def test_endpoint_local_subscriptions_agree_with_linear_bus(population, stream):
    """A networked endpoint offers like the in-process bus.

    ``SemanticEndpoint`` interprets every message arriving off the wire
    against its own profile and each co-attached local subscription.
    Over the same profiles and message stream it must reach the same
    per-subscription accept / transform / reject decisions, in the same
    order and with the same ``rejected`` counts, as an unindexed linear
    :class:`SemanticBus` — and its promiscuous tap must surface exactly
    the messages the bus rejected for the first (primary) profile.
    """
    from repro.messaging.transport import SemanticEndpoint
    from repro.network.clock import Scheduler
    from repro.network.multicast import MulticastGroup
    from repro.network.simnet import Network

    def profiles():
        return [
            ClientProfile(f"c{i}", dict(attrs), interest=interest, transforms=transforms)
            for i, (attrs, interest, transforms) in enumerate(population)
        ]

    def note(log, i):
        return lambda d: log.append(
            (i, d.message.msg_id, d.result.decision, d.result.effective_headers)
        )

    linear = SemanticBus(indexed=False)
    got_linear = []
    subs_l = [linear.attach(p, note(got_linear, i)) for i, p in enumerate(profiles())]

    sched = Scheduler()
    net = Network(sched, seed=0)
    for host in ("tx", "rx"):
        net.add_node(host)
    net.add_link("tx", "rx", latency=0.001)
    group = MulticastGroup(net, "239.3.3.3", 5004)
    got_endpoint, tapped = [], []
    primary, *others = profiles()
    receiver = SemanticEndpoint(
        net,
        "rx",
        group,
        primary,
        on_delivery=note(got_endpoint, 0),
        on_rejected=lambda m: tapped.append(m.msg_id),
        promiscuous=True,
    )
    subs_e = [receiver._primary] + [
        receiver.attach(p, note(got_endpoint, i)) for i, p in enumerate(others, start=1)
    ]
    sender = SemanticEndpoint(net, "tx", group, ClientProfile("tx"), on_delivery=lambda d: None)

    batch = [
        SemanticMessage.create("tx", selector, headers={"enc": enc})
        for selector, enc in stream
    ]
    for message in batch:
        linear.publish(message)
        sender.publish(message)
    sched.run_for(1.0)

    assert got_endpoint == got_linear
    for sl, se in zip(subs_l, subs_e):
        assert (se.accepted, se.transformed, se.rejected) == (
            sl.accepted,
            sl.transformed,
            sl.rejected,
        )
    primary_got = {msg_id for i, msg_id, _d, _h in got_linear if i == 0}
    assert tapped == [m.msg_id for m in batch if m.msg_id not in primary_got]
    assert receiver.accepted_messages == subs_l[0].accepted + subs_l[0].transformed
    receiver.close()
    sender.close()


@settings(max_examples=60, deadline=None)
@given(
    attrs=profile_attrs,
    selector=st.sampled_from(SELECTORS),
)
def test_required_attributes_is_sound(attrs, selector):
    """No profile lacking a required attribute ever matches the selector."""
    from repro.core.selectors import required_attributes

    sel = Selector(selector)
    required = required_attributes(sel)
    profile = ClientProfile("c", dict(attrs))
    if required and not required <= frozenset(profile.snapshot()):
        assert not interpret(sel, {}, profile).accepted


@settings(max_examples=60, deadline=None)
@given(
    attrs=profile_attrs,
    selector=st.sampled_from(SELECTORS),
)
def test_shortlist_never_loses_a_match(attrs, selector):
    """Sound over-approximation: every interpreter match is shortlisted."""
    from repro.core.matching_engine import MatchingEngine

    profile = ClientProfile("c", dict(attrs))
    eng = MatchingEngine()
    eng.add("c", profile)
    sl = eng.shortlist(selector)
    matches = interpret(Selector(selector), {}, profile).accepted
    if matches and not sl.linear:
        assert "c" in sl.keys
