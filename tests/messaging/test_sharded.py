"""Tests for the sharded batch broker and the unified BrokerAPI."""

import threading
from unittest import mock

import pytest

from repro.core.matching import Decision
from repro.core.profiles import ClientProfile, TransformRule
from repro.core.selectors import Selector, required_attributes
from repro.messaging.broker import BatchPublishResult, SemanticBus
from repro.messaging.message import SemanticMessage
from repro.messaging.sharded import ShardedSemanticBus, _signature_shard
from repro.messaging.transport import BrokerAPI, make_broker


def attach(bus, name, sink, **profile_kwargs):
    profile = ClientProfile(name, profile_kwargs.pop("attrs", {}), **profile_kwargs)
    sub = bus.attach(profile, lambda d: sink.append((name, d)))
    return profile, sub


def msg(selector, **headers):
    return SemanticMessage.create("s", selector, headers=headers or None)


class TestRequiredAttributes:
    """The shard-skip predicate: a sound lower bound on matching profiles."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("true", frozenset()),
            ("false", frozenset()),
            ("role == 'medic'", {"role"}),
            ("role != 'medic'", {"role"}),
            ("role == 'medic' and tier > 1", {"role", "tier"}),
            # OR: only attributes every branch needs are required
            ("role == 'medic' or role == 'clerk'", {"role"}),
            ("role == 'medic' or tier > 1", frozenset()),
            # NOT can match profiles *lacking* the attribute: nothing required
            ("not role == 'medic'", frozenset()),
            ("urgent", {"urgent"}),
            ("exists(caps)", {"caps"}),
            ("caps contains 'jpeg'", {"caps"}),
            ("role in ['medic', 'clerk'] and exists(tier)", {"role", "tier"}),
            ("role == 'medic' and (tier == 1 or tier == 2)", {"role", "tier"}),
        ],
    )
    def test_required_set(self, text, expected):
        assert required_attributes(Selector(text)) == frozenset(expected)
        # memoised method agrees with the free function
        assert Selector(text).required_attributes() == frozenset(expected)

    def test_soundness_missing_required_attr_never_matches(self):
        """A profile without a required attribute must always reject."""
        from repro.core.matching import interpret

        empty = ClientProfile("e", {})
        for text in (
            "role == 'medic'",
            "role == 'medic' or role == 'clerk'",
            "urgent",
            "exists(caps)",
            "role != 'medic'",
        ):
            sel = Selector(text)
            assert required_attributes(sel), text
            assert interpret(sel, {}, empty).decision is Decision.REJECT, text


class TestRouting:
    def test_signature_routing_is_stable(self):
        sig = frozenset({"role", "team"})
        assert _signature_shard(sig, 8) == _signature_shard(sig, 8)
        assert 0 <= _signature_shard(sig, 8) < 8

    def test_empty_signature_lands_in_catch_all(self):
        assert _signature_shard(frozenset(), 8) == 0
        bus = ShardedSemanticBus(shards=8)
        _, sub = attach(bus, "bare", [])
        assert sub.shard == 0

    def test_same_signature_same_shard_regardless_of_values(self):
        bus = ShardedSemanticBus(shards=8)
        _, a = attach(bus, "a", [], attrs={"role": "medic", "team": "x"})
        _, b = attach(bus, "b", [], attrs={"role": "clerk", "team": "y"})
        assert a.shard == b.shard
        assert bus.route(a.profile) == a.shard

    def test_shard_sizes_account_for_everyone(self):
        bus = ShardedSemanticBus(shards=4)
        for i in range(10):
            attach(bus, f"c{i}", [], attrs={f"k{i % 3}": i})
        assert sum(bus.shard_sizes()) == bus.subscribers == 10

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedSemanticBus(shards=0)


class TestEquivalence:
    """Decision- and order-identity with the linear bus (default policy)."""

    def _population(self, bus, sink):
        specs = [
            ("medic1", {"role": "medic"}),
            ("medic2", {"role": "medic", "tier": 1}),
            ("clerk", {"role": "clerk"}),
            ("bare", {}),
            ("zoner", {"zone": "north", "tier": 2}),
        ]
        return [attach(bus, n, sink, attrs=a) for n, a in specs]

    def _batch(self):
        return [
            msg("role == 'medic'"),
            msg("true"),
            msg("role == 'clerk' or zone == 'north'"),
            msg("tier >= 1"),
            msg("false"),
        ]

    def test_batch_identical_to_linear_bus(self):
        for shards in (1, 2, 5, 8):
            linear, sharded = SemanticBus(indexed=False), ShardedSemanticBus(shards=shards)
            got_l, got_s = [], []
            subs_l = self._population(linear, got_l)
            subs_s = self._population(sharded, got_s)
            batch = self._batch()
            res_l = [linear.publish(m) for m in batch]
            res_s = sharded.publish_many(batch)
            # same deliveries, in the same global order
            assert [(n, d.message.msg_id, d.result.decision) for n, d in got_l] == [
                (n, d.message.msg_id, d.result.decision) for n, d in got_s
            ]
            for rl, rs in zip(res_l, res_s):
                assert (rl.delivered, rl.transformed, rl.rejected) == (
                    rs.delivered,
                    rs.transformed,
                    rs.rejected,
                )
            for (_, sl), (_, ss) in zip(subs_l, subs_s):
                assert (sl.accepted, sl.transformed, sl.rejected) == (
                    ss.accepted,
                    ss.transformed,
                    ss.rejected,
                )

    def test_publish_is_a_batch_of_one(self):
        bus = ShardedSemanticBus(shards=4)
        got = []
        attach(bus, "medic", got, attrs={"role": "medic"})
        res = bus.publish(msg("role == 'medic'"))
        assert res.delivered == 1 and len(got) == 1
        assert bus.published == 1

    def test_sender_exclusion(self):
        bus = ShardedSemanticBus(shards=4)
        got = []
        profile, sub = attach(bus, "self", got, attrs={"role": "medic"})
        attach(bus, "peer", got, attrs={"role": "medic"})
        res = bus.publish_many([msg("role == 'medic'")] * 3, exclude=profile)
        assert [n for n, _ in got] == ["peer"] * 3
        assert res.delivered == 3
        assert sub.rejected == 0  # excluded offers are not counted as rejects

    def test_transform_mediated_delivery(self):
        bus = ShardedSemanticBus(shards=4)
        got = []
        attach(
            bus,
            "jpeg",
            got,
            attrs={"kind": "viewer"},
            interest="encoding == 'jpeg'",
            transforms=[TransformRule("encoding", "mpeg2", "jpeg")],
        )
        res = bus.publish_many([msg("true", encoding="mpeg2")])
        assert res.transformed == 1 and res.delivered == 1
        assert got[0][1].result.decision is Decision.ACCEPT_WITH_TRANSFORM

    def test_empty_batch(self):
        bus = ShardedSemanticBus()
        out = bus.publish_many([])
        assert isinstance(out, BatchPublishResult)
        assert out.messages == 0 and not out

    def test_detach_semantics_match_plain_bus(self):
        bus = ShardedSemanticBus(shards=4)
        got = []
        _, sub = attach(bus, "c", got, attrs={"role": "medic"})
        sub.detach()
        sub.detach()
        bus._detach(sub)  # bus-side removal stays idempotent too
        assert bus.subscribers == 0
        assert bus.publish(msg("true")).delivered == 0
        assert got == []
        frozen = sub.rejected
        bus.publish(msg("true"))
        assert sub.rejected == frozen  # no offers after detach


class TestShardSkip:
    def test_missing_required_attr_skips_shard(self):
        bus = ShardedSemanticBus(shards=8)
        got = []
        for i in range(6):
            attach(bus, f"z{i}", got, attrs={"zone": "north"})
        # disjunction => per-shard index cannot plan it; without the
        # required-attribute test this would linearly scan every member
        res = bus.publish_many([msg("role == 'medic' or role == 'clerk'")])
        assert res.delivered == 0
        assert res.candidates_checked == 0
        assert bus.shard_skips == 1
        assert got == []

    def test_relevant_shard_still_scanned(self):
        bus = ShardedSemanticBus(shards=8)
        got = []
        attach(bus, "medic", got, attrs={"role": "medic"})
        attach(bus, "zoner", got, attrs={"zone": "north"})
        res = bus.publish_many([msg("role == 'medic' or role == 'clerk'")])
        assert res.delivered == 1
        assert [n for n, _ in got] == ["medic"]
        assert bus.shard_skips == 1  # only the zone-signature shard skipped

    def test_skips_weighted_by_messages(self):
        bus = ShardedSemanticBus(shards=8)
        attach(bus, "zoner", [], attrs={"zone": "north"})
        bus.publish_many([msg("role == 'medic' or role == 'clerk'")] * 4)
        assert bus.shard_skips == 4

    def test_or_of_different_attrs_requires_nothing(self):
        """Branch-divergent disjunctions cannot skip: either attr may match."""
        bus = ShardedSemanticBus(shards=8)
        got = []
        attach(bus, "urgent-only", got, attrs={"urgent": True})
        bus.publish_many([msg("urgent or role == 'x'")])
        assert bus.shard_skips == 0
        assert [n for n, _ in got] == ["urgent-only"]

    def test_backends_agree_and_sharding_cuts_work(self):
        """Mixed attribute signatures, half the batch unindexable
        disjunctions: every backend delivers the same; the linear bus
        checks everyone for every message, and eight shards check strictly
        less than one because they skip the shards that cannot match."""
        signatures = [("role", "team"), ("role", "zone"), ("modality", "team"), ("role",)]
        values = ["medic", "scout", "alpha", "north", "image", "text"]
        population = [
            {attr: values[(i + j) % len(values)] for j, attr in enumerate(signatures[i % len(signatures)])}
            for i in range(60)
        ]
        batch = [msg("role == 'medic' and team == 'alpha'"), msg("modality == 'image' or modality == 'text'")]
        batch *= 3
        outcome = {}
        for label, bus in [
            ("linear", SemanticBus(indexed=False)),
            ("indexed", SemanticBus()),
            ("sharded-1", ShardedSemanticBus(shards=1)),
            ("sharded-8", ShardedSemanticBus(shards=8)),
        ]:
            for i, attrs in enumerate(population):
                attach(bus, f"c{i}", [], attrs=attrs)
            out = bus.publish_many(batch)
            outcome[label] = (out.delivered, out.candidates_checked, getattr(bus, "shard_skips", 0))
            getattr(bus, "close", lambda: None)()
        delivered = {d for d, _, _ in outcome.values()}
        assert len(delivered) == 1 and delivered != {0}
        assert outcome["linear"][1] == len(population) * len(batch)
        assert outcome["sharded-8"][1] < outcome["sharded-1"][1]
        assert outcome["sharded-8"][2] > 0


class TestAtScale:
    """The sharded broker at a scaled-down population: per-message work is
    bounded by the shortlist, not the population, and shards cut the work
    of selectors the index cannot plan."""

    ROLES = ("medic", "scout", "engineer", "observer")
    SUBS_PER_CELL = 20

    def test_shortlist_bounds_work_per_message(self):
        n_subs, n_messages = 4_000, 1_000
        n_cells = n_subs // self.SUBS_PER_CELL
        bus = ShardedSemanticBus(shards=8)
        sink = lambda d: None  # noqa: E731
        for i in range(n_subs):
            attrs = {"role": self.ROLES[i % 4], "cell": f"c{i % n_cells}"}
            if i % 3 == 0:
                attrs["tier"] = i % 5
            bus.attach(ClientProfile(f"s{i}", attrs), sink)
        # a few distinct selectors, each one cell+role slice
        selectors = [f"cell == 'c{(i * 97) % n_cells}' and role == '{self.ROLES[i % 4]}'" for i in range(8)]
        out = bus.publish_many([msg(selectors[i % 8], kind="bench") for i in range(n_messages)])
        bus.close()
        assert bus.subscribers == n_subs and out.messages == n_messages
        assert out.delivered > 0
        assert out.candidates_checked < n_messages * 40

    #: one marker attribute per population segment, named so that their
    #: attribute signatures spread evenly over 2, 4 and 8 shards
    MARKERS = (
        "g0", "g1", "g8", "g9", "g10", "g11", "g18", "g19",
        "g20", "g21", "g28", "g29", "g30", "g31", "g38", "g39",
    )

    def test_shards_cut_linear_fallback_work(self):
        n_subs, n_messages = 1_600, 16
        # disjunctions: the per-shard index cannot plan them, so every
        # member of every shard not skipped runs the interpreter
        batch = [
            msg(f"{self.MARKERS[i % 16]} == 'yes' or {self.MARKERS[i % 16]} == 'maybe'")
            for i in range(n_messages)
        ]
        delivered, checked = {}, {}
        for shards in (1, 2, 4, 8):
            bus = ShardedSemanticBus(shards=shards)
            sink = lambda d: None  # noqa: E731
            for i in range(n_subs):
                marker = self.MARKERS[i % 16]
                # sparse matches: the cost is interpreting, not fanning out
                value = "yes" if i % 100 < 2 else "no"
                bus.attach(ClientProfile(f"s{i}", {marker: value, "val": i % 100}), sink)
            out = bus.publish_many(batch)
            bus.close()
            delivered[shards], checked[shards] = out.delivered, out.candidates_checked
        # identical outcomes at every shard count
        assert len(set(delivered.values())) == 1 and delivered[1] > 0
        # one shard scans the whole population for every message; eight
        # confine each message to its marker's shard
        assert checked[1] == n_messages * n_subs
        assert checked[8] <= checked[4] <= checked[2] <= checked[1]
        assert checked[1] / checked[8] >= 4.0


class TestBackpressure:
    def test_block_delivers_everything_in_order(self):
        """A batch larger than any queue goes to the callback in full, in order."""
        bus = ShardedSemanticBus(shards=2)
        got = []
        attach(bus, "c", got, attrs={"role": "medic"})
        out = bus.publish_many([msg("role == 'medic'", seq=i) for i in range(1100)])
        assert [d.message.headers["seq"] for _, d in got] == list(range(1100))
        assert out.delivered == 1100


class TestBrokerAPIProtocol:
    def test_all_backends_conform(self):
        """Both buses are brokers; the networked endpoint serves one profile."""
        from repro.messaging.transport import SemanticEndpoint
        from repro.network.clock import Scheduler
        from repro.network.multicast import MulticastGroup
        from repro.network.simnet import Network

        assert isinstance(SemanticBus(), BrokerAPI)
        assert isinstance(ShardedSemanticBus(), BrokerAPI)
        net = Network(Scheduler(), seed=1)
        net.add_node("h")
        ep = SemanticEndpoint(
            net, "h", MulticastGroup(net, "239.9.9.9", 5004),
            ClientProfile("h", {}), lambda d: None,
        )
        assert not isinstance(ep, BrokerAPI)
        ep.close()

    def test_make_broker_picks_by_scale(self):
        assert isinstance(make_broker(), SemanticBus)
        assert make_broker().stats()["indexed"] is True
        assert make_broker(indexed=False).stats()["indexed"] is False
        assert isinstance(make_broker(shards=4), ShardedSemanticBus)
        assert make_broker(shards=4).shards == 4
        # an explicit single shard still buys batching
        assert isinstance(make_broker(shards=1), ShardedSemanticBus)

    def test_make_broker_rejects_sharded_options_on_plain_bus(self):
        with pytest.raises(TypeError):
            make_broker(workers=2)  # nothing passes through to a backend

    def test_make_broker_refuses_an_unindexed_sharded_bus(self):
        """Every shard keeps an index: asking for none must not be ignored."""
        with pytest.raises(ValueError):
            make_broker(shards=4, indexed=False)
        with pytest.raises(TypeError):
            make_broker(10_000)  # no population heuristic: shards= or nothing

    def test_stats_surface(self):
        plain, sharded = SemanticBus(), ShardedSemanticBus(shards=3)
        for bus in (plain, sharded):
            attach(bus, "c", [], attrs={"role": "medic"})
            bus.publish(msg("true"))
            stats = bus.stats()
            assert stats["subscribers"] == 1
            assert stats["published"] == 1
        assert plain.stats()["backend"] == "semantic-bus"
        assert sharded.stats()["backend"] == "sharded-semantic-bus"
        assert sharded.stats()["shards"] == 3
        assert sum(sharded.stats()["shard_sizes"]) == 1

    def test_close_is_idempotent(self):
        bus = ShardedSemanticBus(shards=2, workers=2)
        attach(bus, "c", [], attrs={"role": "medic"})
        bus.publish(msg("role == 'medic'"))
        bus.close()
        bus.close()

    def test_default_pool_does_not_depend_on_the_cpu_count(self):
        with mock.patch("os.cpu_count", return_value=1):
            bus = ShardedSemanticBus(shards=4)
        sink = []
        for i in range(16):
            attach(bus, f"c{i}", sink, attrs={"role": "medic", f"k{i}": i})
        assert sum(1 for size in bus.shard_sizes() if size) > 1
        bus.publish_many([msg("role == 'medic'")])
        assert len(sink) == 16
        assert bus.stats()["workers"] == 4
        assert bus._pool is not None  # the batch fanned out to the pool
        bus.close()


class TestConcurrency:
    """Attach/detach/publish interleavings must never corrupt accounting."""

    def _hammer(self, bus):
        errors = []
        stop = threading.Event()

        def churn(tid):
            try:
                for i in range(60):
                    _, sub = attach(
                        bus, f"t{tid}-{i}", [], attrs={"role": "medic", "t": tid}
                    )
                    if i % 3 == 0:
                        sub.detach()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        def publisher():
            try:
                while not stop.is_set():
                    bus.publish_many([msg("role == 'medic'"), msg("true")])
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        churners = [threading.Thread(target=churn, args=(t,)) for t in range(4)]
        pub = threading.Thread(target=publisher)
        pub.start()
        for t in churners:
            t.start()
        for t in churners:
            t.join()
        stop.set()
        pub.join()
        return errors

    @pytest.mark.parametrize(
        "bus_factory",
        [lambda: SemanticBus(), lambda: ShardedSemanticBus(shards=4)],
        ids=["semantic-bus", "sharded"],
    )
    def test_concurrent_churn_and_publish(self, bus_factory):
        bus = bus_factory()
        errors = self._hammer(bus)
        assert errors == []
        # 4 threads x 60 attaches, every third detached again
        assert bus.subscribers == 4 * 60 - 4 * 20
        # surviving subscribers have consistent derived accounting
        res = bus.publish(msg("true"))
        assert res.delivered == bus.subscribers

    def test_callback_may_detach_during_delivery(self):
        bus = ShardedSemanticBus(shards=2)
        subs = []

        def suicidal(_delivery):
            subs[0].detach()

        profile = ClientProfile("c", {"role": "medic"})
        subs.append(bus.attach(profile, suicidal))
        attach(bus, "peer", [], attrs={"role": "medic"})
        out = bus.publish_many([msg("role == 'medic'")] * 3)
        # the snapshot admits the whole batch; detach applies afterwards
        assert out.results[0].delivered == 2
        assert bus.subscribers == 1

    def test_callback_may_attach_during_delivery(self):
        bus = ShardedSemanticBus(shards=2)
        got = []

        def grower(_delivery):
            attach(bus, f"new{len(got)}", got, attrs={"role": "medic"})

        bus.attach(ClientProfile("seed", {"role": "medic"}), grower)
        assert bus.publish(msg("role == 'medic'")).delivered == 1
        assert bus.subscribers == 2
        # the newcomer participates from the next batch on
        assert bus.publish(msg("role == 'medic'")).delivered >= 2


class TestCloseRace:
    """close() vs publish: the shutdown path must be lock-protected.

    close() used to flip ``_closed`` and null the pool outside the
    attach lock, so a publish already holding the lock could reach
    ``_ensure_pool`` mid-shutdown and die with "bus is closed" — making
    the docstring's "still publishes afterwards" a lie for workers>1.
    Now close() mutates under the lock and ``_match_all`` falls back to
    inline matching once closed.
    """

    def test_publish_after_close_delivers_inline(self):
        bus = ShardedSemanticBus(shards=4, workers=4)
        sink = []
        for i in range(8):
            attach(bus, f"c{i}", sink, attrs={"role": "medic", "seat": i})
        assert bus.publish(msg("role == 'medic'")).delivered == 8
        bus.close()
        # multi-shard batch after close: must match inline, not raise
        out = bus.publish_many([msg("role == 'medic'")] * 3)
        assert [r.delivered for r in out.results] == [8, 8, 8]
        assert bus._pool is None

    def test_concurrent_close_and_publish_never_raises(self):
        for _ in range(20):
            bus = ShardedSemanticBus(shards=4, workers=4)
            for i in range(8):
                attach(bus, f"c{i}", [], attrs={"role": "medic", "seat": i})
            errors = []
            start = threading.Barrier(3)

            def publisher():
                try:
                    start.wait(5)
                    for _ in range(5):
                        bus.publish(msg("role == 'medic'"))
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)

            def closer():
                start.wait(5)
                bus.close()

            threads = [
                threading.Thread(target=publisher),
                threading.Thread(target=publisher),
                threading.Thread(target=closer),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert errors == []

    def test_ensure_pool_rebuilds_only_before_close(self):
        bus = ShardedSemanticBus(shards=4, workers=4)
        for i in range(8):
            # distinct attribute signatures spread the profiles over
            # shards, forcing the pooled fan-out path
            attach(bus, f"c{i}", [], attrs={"role": "medic", f"cap{i}": 1})
        bus.publish(msg("role == 'medic'"))
        assert bus._pool is not None
        bus.close()
        bus.publish(msg("role == 'medic'"))
        assert bus._pool is None  # closed bus never resurrects workers
