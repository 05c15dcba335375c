"""Tests for the in-process semantic bus."""

import pytest

from repro.core.matching import Decision
from repro.core.profiles import ClientProfile, TransformRule
from repro.messaging.broker import PublishResult, SemanticBus
from repro.messaging.message import SemanticMessage


@pytest.fixture
def bus():
    return SemanticBus()


def attach(bus, name, sink, **profile_kwargs):
    profile = ClientProfile(name, profile_kwargs.pop("attrs", {}), **profile_kwargs)
    sub = bus.attach(profile, lambda d: sink.append((name, d)))
    return profile, sub


class TestDispatch:
    def test_selector_routes_by_profile(self, bus):
        got = []
        attach(bus, "medic", got, attrs={"role": "medic"})
        attach(bus, "clerk", got, attrs={"role": "clerk"})
        res = bus.publish(SemanticMessage.create("hq", "role == 'medic'", kind="alert"))
        assert res.delivered == 1
        assert res.rejected == 1
        assert [name for name, _ in got] == ["medic"]

    def test_broadcast_true_selector(self, bus):
        got = []
        for name in ("a", "b", "c"):
            attach(bus, name, got)
        assert bus.publish(SemanticMessage.create("x", "true")).delivered == 3

    def test_sender_excluded(self, bus):
        got = []
        profile, _ = attach(bus, "self", got)
        bus.publish(SemanticMessage.create("self", "true"), exclude=profile)
        assert got == []

    def test_interest_filters_content(self, bus):
        got = []
        attach(bus, "textonly", got, interest="modality == 'text'")
        bus.publish(SemanticMessage.create("s", "true", headers={"modality": "image"}))
        assert got == []
        bus.publish(SemanticMessage.create("s", "true", headers={"modality": "text"}))
        assert len(got) == 1

    def test_transform_mediated_delivery(self, bus):
        got = []
        attach(
            bus,
            "jpeg-client",
            got,
            interest="encoding == 'jpeg'",
            transforms=[TransformRule("encoding", "mpeg2", "jpeg")],
        )
        bus.publish(SemanticMessage.create("s", "true", headers={"encoding": "mpeg2"}))
        assert len(got) == 1
        _, delivery = got[0]
        assert delivery.result.decision is Decision.ACCEPT_WITH_TRANSFORM
        assert delivery.result.effective_headers["encoding"] == "jpeg"

    def test_profile_change_takes_effect_immediately(self, bus):
        """The run-time binding the paper emphasizes: no re-registration."""
        got = []
        profile, _ = attach(bus, "c", got, attrs={"role": "observer"})
        bus.publish(SemanticMessage.create("s", "role == 'medic'"))
        assert got == []
        profile.update(role="medic")  # local profile edit only
        bus.publish(SemanticMessage.create("s", "role == 'medic'"))
        assert len(got) == 1


class TestSubscriptions:
    def test_detach_stops_delivery(self, bus):
        got = []
        _, sub = attach(bus, "c", got)
        sub.detach()
        bus.publish(SemanticMessage.create("s", "true"))
        assert got == []
        assert bus.subscribers == 0

    def test_detach_idempotent(self, bus):
        got = []
        _, sub = attach(bus, "c", got)
        sub.detach()
        sub.detach()
        assert sub.active is False
        assert bus.subscribers == 0

    def test_detach_idempotent_via_bus_internal(self, bus):
        """Even calling the bus-side removal twice must not raise."""
        got = []
        _, sub = attach(bus, "c", got)
        bus._detach(sub)
        bus._detach(sub)  # regression: used to raise ValueError
        assert bus.subscribers == 0
        sub.detach()  # still a no-op after the bus already removed it

    def test_stale_handle_cannot_reattach(self, bus):
        """Flipping .active on a detached handle must not restore routing."""
        got = []
        _, sub = attach(bus, "c", got)
        sub.detach()
        sub.active = True  # the stale-handle abuse TSP007 flags statically
        bus.publish(SemanticMessage.create("s", "true"))
        assert got == []
        assert bus.subscribers == 0

    def test_detach_prunes_index_shortlist(self, bus):
        """The matching engine must drop the subscription from its index."""
        got = []
        _, sub = attach(bus, "medic", got, attrs={"role": "medic"})
        msg = SemanticMessage.create("s", "role == 'medic'")
        before = bus.engine.shortlist(msg.selector)
        assert before.via_index and sub in before.keys
        sub.detach()
        after = bus.engine.shortlist(msg.selector)
        assert after.keys is not None and sub not in after.keys
        assert bus.publish(msg).delivered == 0

    def test_detach_during_other_subscriptions(self, bus):
        got = []
        _, sub1 = attach(bus, "a", got)
        attach(bus, "b", got)
        sub1.detach()
        sub1.detach()
        assert bus.publish(SemanticMessage.create("s", "true")).delivered == 1

    def test_counters(self, bus):
        got = []
        _, sub = attach(bus, "c", got, interest="modality == 'text'",
                        transforms=[TransformRule("modality", "image", "text")])
        bus.publish(SemanticMessage.create("s", "true", headers={"modality": "text"}))
        bus.publish(SemanticMessage.create("s", "true", headers={"modality": "image"}))
        bus.publish(SemanticMessage.create("s", "true", headers={"modality": "audio"}))
        assert sub.accepted == 1
        assert sub.transformed == 1
        assert sub.rejected == 1
        assert bus.published == 3

    def test_kind_header_visible_to_interest(self, bus):
        got = []
        attach(bus, "c", got, interest="kind == 'chat'")
        bus.publish(SemanticMessage.create("s", "true", kind="chat"))
        bus.publish(SemanticMessage.create("s", "true", kind="image-share"))
        assert len(got) == 1


class TestPublishResult:
    def test_field_breakdown(self, bus):
        got = []
        attach(bus, "jpeg", got,
               interest="encoding == 'jpeg'",
               transforms=[TransformRule("encoding", "mpeg2", "jpeg")])
        attach(bus, "deaf", got, interest="encoding == 'pcm'")
        res = bus.publish(
            SemanticMessage.create("s", "true", headers={"encoding": "mpeg2"})
        )
        assert res.delivered == 1
        assert res.transformed == 1
        assert res.rejected == 1
        assert res.candidates_checked == 2  # broadcast: nothing indexable

    def test_equality_between_results(self, bus):
        a = PublishResult(1, 0, 2, 3, True)
        b = PublishResult(1, 0, 2, 3, True)
        c = PublishResult(1, 0, 2, 3, False)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != 1  # a record, not an int

    def test_index_serves_selective_publish(self, bus):
        got = []
        attach(bus, "medic", got, attrs={"role": "medic"})
        for i in range(5):
            attach(bus, f"clerk{i}", got, attrs={"role": "clerk"})
        res = bus.publish(SemanticMessage.create("hq", "role == 'medic'"))
        assert res.matched_via_index is True
        assert res.candidates_checked == 1  # only the medic ran interpret()
        assert res.delivered == 1
        assert res.rejected == 5  # counter parity with the linear path

    def test_linear_bus_same_decisions(self):
        linear = SemanticBus(indexed=False)
        got = []
        attach(linear, "medic", got, attrs={"role": "medic"})
        attach(linear, "clerk", got, attrs={"role": "clerk"})
        res = linear.publish(SemanticMessage.create("hq", "role == 'medic'"))
        assert res.matched_via_index is False
        assert res.candidates_checked == 2
        assert res.delivered == 1
        assert res.rejected == 1


class TestAttachOrdinals:
    """Regression: ``Subscription`` used a *class-level* seq counter, so
    attaches on independent buses (or racing threads) interleaved their
    ordinals.  The counter now lives on each bus, under a lock."""

    def test_independent_buses_get_independent_seqs(self):
        a, b = SemanticBus(), SemanticBus()
        _, sub_a1 = attach(a, "a1", [])
        _, sub_b1 = attach(b, "b1", [])
        _, sub_a2 = attach(a, "a2", [])
        assert (sub_a1._seq, sub_a2._seq) == (1, 2)
        assert sub_b1._seq == 1  # bus b starts its own count

    def test_threaded_attach_ordinals_unique(self, bus):
        import threading

        subs = []
        lock = threading.Lock()

        def worker():
            for i in range(50):
                sub = bus.attach(ClientProfile(f"p{i}", {}), lambda d: None)
                with lock:
                    subs.append(sub)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [s._seq for s in subs]
        assert len(set(seqs)) == len(seqs) == 400
        assert sorted(seqs) == list(range(1, 401))

    def test_delivery_order_follows_attach_order(self, bus):
        got = []
        for name in ("first", "second", "third"):
            attach(bus, name, got, attrs={"role": "medic"})
        bus.publish(SemanticMessage.create("hq", "role == 'medic'"))
        assert [name for name, _ in got] == ["first", "second", "third"]

    def test_detach_does_not_disturb_ordering(self, bus):
        got = []
        attach(bus, "first", got)
        _, sub = attach(bus, "second", got)
        attach(bus, "third", got)
        sub.detach()
        bus.publish(SemanticMessage.create("hq", "true"))
        assert [name for name, _ in got] == ["first", "third"]


class TestProfileChurn:
    """Semantic delivery against roster naming: the group of interacting
    clients is determined only at run time, so no roster is kept in sync."""

    ROLES = ("medic", "logistics", "command", "observer")

    def populate(self, bus, n=200):
        sinks, profiles = {}, []
        for i in range(n):
            attrs = {"role": self.ROLES[i % 4], "battery": 10 + (i * 7) % 90}
            sink = sinks.setdefault(f"c{i}", [])
            profile, _ = attach(bus, f"c{i}", sink, attrs=attrs, interest="kind == 'alert' or kind == 'chat'")
            profiles.append(profile)
        return profiles, sinks

    def test_a_selector_picks_its_audience_per_message(self, bus):
        profiles, sinks = self.populate(bus)
        result = bus.publish(SemanticMessage.create("hq", "role == 'medic' and battery >= 30", kind="alert"))
        want = {p.client_id for p in profiles if p.get("role") == "medic" and p.get("battery") >= 30}
        assert {name for name, got in sinks.items() if got} == want
        assert 0 < result.delivered == len(want) < len(profiles)

    def test_profile_churn_needs_no_control_message(self, bus):
        """50 clients drain their batteries, one alert each time: a roster
        design tells the 199 other peers of every change (50 x 199 = 9 950
        control messages); here each change is a local mutation, and the
        next message already sees it."""
        profiles, sinks = self.populate(bus)
        for p in profiles[:50]:
            p.update(battery=5)
            bus.publish(SemanticMessage.create("hq", "battery <= 10", kind="alert"))
        # c_i hears every alert from its own drain on; c90 and c180 sit at
        # battery 10 from the start
        got = {name: len(s) for name, s in sinks.items() if s}
        assert got == {**{f"c{i}": 50 - i for i in range(50)}, "c90": 50, "c180": 50}
