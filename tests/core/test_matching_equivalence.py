"""Property tests: every broker backend decides like a linear scan.

The matching engine is only allowed to *narrow where the interpreter
looks*, never to change what it decides.  This drives randomized
profile populations and selectors through an indexed and an unindexed
:class:`~repro.messaging.broker.SemanticBus` and requires identical
deliveries, per-subscriber counters, and publish results — including
after mid-run profile mutations (exercising the watch/reindex path).
The sharded batch bus and the networked endpoint (one profile) are held
to the same linear oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import Decision, interpret
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


_SHARD_SELECTORS = ["true", "role == 'medic'", "role == 'clerk' or zone == 'north'", "tier >= 1", "false"]


def _drive_mutating_population(bus, publish_batch, deferred, batches):
    """Two batches over a population whose callbacks change it mid-batch.

    On its third delivery the ``mutator`` subscriber detaches ``late``
    (attached after it) and attaches ``newcomer``.  ``deferred`` is
    ``None`` for the sharded bus, which applies the change at once; for
    the linear oracle it is a list the caller drains after each batch,
    since a sharded batch admits its whole snapshot before delivering.
    Returns the delivery log and every subscription's counters.
    """
    log = []
    subs = {}

    def note(name):
        return lambda d: log.append((name, d.message.msg_id, d.result.decision))

    def attach(name, attrs, callback=None):
        subs[name] = bus.attach(ClientProfile(name, attrs), callback or note(name))

    def mutate():
        subs["late"].detach()
        attach("newcomer", {"role": "medic"})

    def mutator(delivery):
        note("mutator")(delivery)
        if sum(1 for entry in log if entry[0] == "mutator") == 3:
            (deferred.append if deferred is not None else lambda f: f())(mutate)

    attach("hub", {"role": "medic", "tier": 2, "zone": "north"})
    attach("mutator", {"role": "medic"}, mutator)
    attach("clerk", {"role": "clerk"})
    attach("late", {"tier": 1})
    attach("bare", {})
    for batch in batches:
        publish_batch(batch)
        while deferred:
            deferred.pop(0)()
    counters = {name: (s.accepted, s.transformed, s.rejected) for name, s in subs.items()}
    return log, counters


@pytest.mark.parametrize("nshards", [1, 2, 5, 8])
def test_sharded_batch_agrees_with_linear_bus_while_callbacks_mutate(nshards):
    """Detach and attach from delivery callbacks, in a batch past 1 024 deliveries."""
    from repro.messaging.sharded import ShardedSemanticBus

    linear = SemanticBus(indexed=False)

    def publish_linear(batch):
        for message in batch:
            linear.publish(message)

    # the hub takes four messages in five: > 1 024 deliveries in one batch
    batches = (
        [SemanticMessage.create("s", _SHARD_SELECTORS[i % 5]) for i in range(1300)],
        [SemanticMessage.create("s", text) for text in _SHARD_SELECTORS],
    )
    sharded = ShardedSemanticBus(shards=nshards)
    want = _drive_mutating_population(linear, publish_linear, [], batches)
    got = _drive_mutating_population(sharded, sharded.publish_many, None, batches)
    sharded.close()
    assert sum(1 for entry in want[0] if entry[0] == "hub") > 1024
    assert {entry[0] for entry in want[0]} >= {"late", "newcomer"}
    assert got == want


consumer = st.tuples(
    profile_attrs,
    st.sampled_from([None, "enc == 'jpeg'", "enc == 'pcm' or urgent"]),
    st.sampled_from([(), (TransformRule("enc", "mpeg2", "jpeg"),)]),
)


@settings(max_examples=60, deadline=None)
@given(
    spec=consumer,
    stream=st.lists(
        st.tuples(st.sampled_from(SELECTORS), st.sampled_from(ENCODINGS)),
        min_size=1,
        max_size=6,
    ),
)
def test_endpoint_local_subscriptions_agree_with_linear_bus(spec, stream):
    """A networked endpoint decides like a one-profile in-process bus.

    ``SemanticEndpoint`` interprets every message arriving off the wire
    once, against its one profile.  Over the same profile and message
    stream it must make the same accept / transform decisions, in the
    same order and with the same effective headers, as an unindexed
    :class:`SemanticBus` with that profile as its only subscriber — and
    it must reject (receive without delivering) exactly as many messages
    as the bus rejected.
    """
    from repro.messaging.transport import SemanticEndpoint
    from repro.network.clock import Scheduler
    from repro.network.multicast import MulticastGroup
    from repro.network.simnet import Network

    attrs, interest, transforms = spec

    def profile():
        return ClientProfile("c", dict(attrs), interest=interest, transforms=transforms)

    def note(log):
        return lambda d: log.append((d.message.msg_id, d.result.decision, d.result.effective_headers))

    linear = SemanticBus(indexed=False)
    got_linear = []
    sub = linear.attach(profile(), note(got_linear))

    sched = Scheduler()
    net = Network(sched, seed=0)
    for host in ("tx", "rx"):
        net.add_node(host)
    net.add_link("tx", "rx", latency=0.001)
    group = MulticastGroup(net, "239.3.3.3", 5004)
    got_endpoint = []
    receiver = SemanticEndpoint(net, "rx", group, profile(), on_delivery=note(got_endpoint))
    sender = SemanticEndpoint(net, "tx", group, ClientProfile("tx"), on_delivery=lambda d: None)

    batch = [
        SemanticMessage.create("tx", selector, headers={"enc": enc})
        for selector, enc in stream
    ]
    rejected_by_bus = []
    for message in batch:
        if linear.publish(message).delivered == 0:
            rejected_by_bus.append(message.msg_id)
        sender.publish(message)
    sched.run_for(1.0)

    assert got_endpoint == got_linear
    assert receiver.received_messages == len(batch)
    assert receiver.accepted_messages == sub.accepted + sub.transformed
    assert receiver.received_messages - receiver.accepted_messages == len(rejected_by_bus)
    assert sub.rejected == len(rejected_by_bus)
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
        assert interpret(sel, {}, profile).decision is Decision.REJECT


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
    matches = interpret(Selector(selector), {}, profile).decision is not Decision.REJECT
    if matches and not sl.linear:
        assert "c" in sl.keys


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_selective_publish_agrees_and_interprets_only_the_shortlist(n):
    """A selective selector over a growing population: the index plans
    every publish and interprets a shortlist, the linear path every
    subscriber, and both deliver the same."""
    selector = "role == 'medic' and battery >= 80"
    results = {}
    for indexed in (True, False):
        bus = SemanticBus(indexed=indexed)
        for i in range(n):
            attrs = {"role": ROLES[i % 4], "battery": 10 + (i * 7) % 90}
            bus.attach(ClientProfile(f"c{i}", attrs), lambda d: None)
        alert = SemanticMessage.create("hq", selector, kind="alert")
        results[indexed] = [bus.publish(alert) for _ in range(30)]
        if indexed:
            assert bus.engine.indexed_publishes == 30
    index, linear = results[True], results[False]
    assert [(r.delivered, r.rejected) for r in index] == [(r.delivered, r.rejected) for r in linear]
    assert all(r.matched_via_index and not l.matched_via_index for r, l in zip(index, linear))
    assert all(l.candidates_checked == n for l in linear)
    assert all(r.candidates_checked < n for r in index)
    # the 10-client population has no medic at battery >= 80
    assert (index[0].delivered > 0) == (n >= 100)
