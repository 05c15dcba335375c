"""Tests for the networked semantic endpoint."""

import inspect

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.matching import Decision
from repro.core.profiles import ClientProfile, TransformRule
from repro.messaging.message import SemanticMessage
from repro.messaging.serialization import WireError, encode_message
from repro.messaging.transport import SemanticEndpoint, SemanticWire, UnicastSemanticLink
from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup
from repro.network.simnet import Network


@pytest.fixture
def fabric():
    sched = Scheduler()
    net = Network(sched, seed=2)
    net.add_node("sw")
    for h in ("a", "b", "c"):
        net.add_node(h)
        net.add_link(h, "sw", latency=0.001, bandwidth=1e7)
    group = MulticastGroup(net, "239.1.1.1", 5004)
    return sched, net, group


header_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.lists(st.one_of(st.integers(-1000, 1000), st.text(max_size=10)), max_size=4),
)


def endpoint(net, group, host, sink, **profile_kwargs):
    profile = ClientProfile(host, profile_kwargs.pop("attrs", {}), **profile_kwargs)
    return SemanticEndpoint(
        net, host, group, profile, lambda d, h=host: sink.append((h, d))
    )


class TestPublish:
    def test_multicast_reaches_matching_profiles(self, fabric):
        sched, net, group = fabric
        got = []
        endpoint(net, group, "a", got, attrs={"role": "medic"})
        endpoint(net, group, "b", got, attrs={"role": "medic"})
        endpoint(net, group, "c", got, attrs={"role": "clerk"})
        sender = endpoint(net, group, "sw", [], attrs={"role": "hq"})
        sender.publish(SemanticMessage.create("sw", "role == 'medic'", kind="alert"))
        sched.run_for(1.0)
        assert sorted(h for h, _ in got) == ["a", "b"]

    def test_no_sender_loopback(self, fabric):
        sched, net, group = fabric
        got = []
        sender = endpoint(net, group, "a", got)
        sender.publish(SemanticMessage.create("a", "true"))
        sched.run_for(1.0)
        assert got == []

    def test_large_message_fragments_and_reassembles(self, fabric):
        sched, net, group = fabric
        got = []
        endpoint(net, group, "b", got)
        sender = endpoint(net, group, "a", [])
        body = bytes(range(256)) * 40  # ~10 KB -> multiple fragments
        n_frags = sender.publish(SemanticMessage.create("a", "true", body=body))
        assert n_frags > 1
        sched.run_for(1.0)
        assert len(got) == 1
        assert got[0][1].message.body == body

    def test_transform_mediated_accept_over_network(self, fabric):
        sched, net, group = fabric
        got = []
        endpoint(
            net,
            group,
            "b",
            got,
            interest="modality == 'text'",
            transforms=[TransformRule("modality", "image", "text")],
        )
        sender = endpoint(net, group, "a", [])
        sender.publish(
            SemanticMessage.create("a", "true", headers={"modality": "image"})
        )
        sched.run_for(1.0)
        assert got[0][1].result.decision is Decision.ACCEPT_WITH_TRANSFORM

    def test_unicast_between_endpoints(self, fabric):
        sched, net, group = fabric
        got = []
        rx = endpoint(net, group, "b", got)
        tx = endpoint(net, group, "a", [])
        tx.unicast(SemanticMessage.create("a", "true", kind="direct"), rx.address)
        sched.run_for(1.0)
        assert got[0][1].message.kind == "direct"

    def test_closed_endpoint_rejects_send(self, fabric):
        sched, net, group = fabric
        ep = endpoint(net, group, "a", [])
        ep.close()
        with pytest.raises(RuntimeError):
            ep.publish(SemanticMessage.create("a", "true"))

    def test_closed_endpoint_leaves_group(self, fabric):
        sched, net, group = fabric
        got = []
        rx = endpoint(net, group, "b", got)
        tx = endpoint(net, group, "a", [])
        rx.close()
        tx.publish(SemanticMessage.create("a", "true"))
        sched.run_for(1.0)
        assert got == []

    def test_counters(self, fabric):
        sched, net, group = fabric
        got = []
        rx = endpoint(net, group, "b", got, interest="kind == 'chat'")
        tx = endpoint(net, group, "a", [])
        tx.publish(SemanticMessage.create("a", "true", kind="chat"))
        tx.publish(SemanticMessage.create("a", "true", kind="noise"))
        sched.run_for(1.0)
        assert tx.sent_messages == 2
        assert rx.received_messages == 2
        assert rx.accepted_messages == 1


class TestLossyNetwork:
    def test_rtp_survives_reordering_jitter(self):
        sched = Scheduler()
        net = Network(sched, seed=9)
        net.add_node("sw")
        for h in ("a", "b"):
            net.add_node(h)
            net.add_link(h, "sw", latency=0.001, jitter=0.002, bandwidth=1e7)
        group = MulticastGroup(net, "239.1.1.1", 5004)
        got = []
        endpoint(net, group, "b", got)
        tx = endpoint(net, group, "a", [])
        bodies = [bytes([i]) * 3000 for i in range(5)]
        for body in bodies:
            tx.publish(SemanticMessage.create("a", "true", body=body))
        sched.run_for(2.0)
        assert sorted(d.message.body for _, d in got) == sorted(bodies)


class TestEndpointBrokerSurface:
    """The networked endpoint satisfies the same BrokerAPI as the buses."""

    def test_attach_colocated_subscriber(self, fabric):
        sched, net, group = fabric
        primary_got, extra_got = [], []
        rx = endpoint(net, group, "b", primary_got, attrs={"role": "clerk"})
        sub = rx.attach(
            ClientProfile("b-app", {"role": "medic"}),
            lambda d: extra_got.append(d),
        )
        assert rx.subscribers == 2
        tx = endpoint(net, group, "a", [])
        tx.publish(SemanticMessage.create("a", "role == 'medic'"))
        tx.publish(SemanticMessage.create("a", "role == 'clerk'"))
        sched.run_for(1.0)
        # each local profile decides independently, like on the bus
        assert len(primary_got) == 1 and len(extra_got) == 1
        # legacy telemetry counts the endpoint's own profile only
        assert rx.accepted_messages == 1
        assert rx.received_messages == 2
        assert sub.accepted == 1 and sub.rejected == 1

    def test_detach_colocated_subscriber(self, fabric):
        sched, net, group = fabric
        extra_got = []
        rx = endpoint(net, group, "b", [])
        sub = rx.attach(ClientProfile("b-app", {}), lambda d: extra_got.append(d))
        rx.detach(sub)
        rx.detach(sub)  # idempotent
        assert rx.subscribers == 1
        tx = endpoint(net, group, "a", [])
        tx.publish(SemanticMessage.create("a", "true"))
        sched.run_for(1.0)
        assert extra_got == []

    def test_publish_accepts_and_ignores_exclude(self, fabric):
        sched, net, group = fabric
        got = []
        endpoint(net, group, "b", got)
        tx = endpoint(net, group, "a", [])
        tx.publish(SemanticMessage.create("a", "true"), exclude=tx.profile)
        sched.run_for(1.0)
        assert len(got) == 1  # loopback never happens anyway

    def test_publish_many_returns_fragment_counts(self, fabric):
        sched, net, group = fabric
        got = []
        endpoint(net, group, "b", got)
        tx = endpoint(net, group, "a", [])
        sent = tx.publish_many(
            [
                SemanticMessage.create("a", "true", body=b"x"),
                SemanticMessage.create("a", "true", body=bytes(3000)),
            ]
        )
        assert len(sent) == 2
        assert sent[0] == 1 and sent[1] > 1
        sched.run_for(1.0)
        assert len(got) == 2

    def test_publish_many_suppresses_per_message_errors(self, fabric):
        sched, net, group = fabric
        from repro.messaging.serialization import WireError

        tx = endpoint(net, group, "a", [])
        good = SemanticMessage.create("a", "true")
        bad = SemanticMessage.create("a", "true", headers={"bad": {"un": 1}})
        with pytest.raises(WireError):
            tx.publish_many([good, bad, good])
        sent = tx.publish_many([good, bad, good], suppress_errors=True)
        assert sent[0] is not None and sent[2] is not None
        assert sent[1] is None

    def test_stats_surface(self, fabric):
        sched, net, group = fabric
        got = []
        rx = endpoint(net, group, "b", got)
        tx = endpoint(net, group, "a", [])
        tx.publish(SemanticMessage.create("a", "true"))
        sched.run_for(1.0)
        stats = rx.stats()
        assert stats["backend"] == "semantic-endpoint"
        assert stats["received_messages"] == 1
        assert stats["subscribers"] == 1
        assert tx.stats()["sent_messages"] == 1


class TestOneWireStack:
    """The group endpoint's unicast and the radio leg's link are two
    bindings of one wire stack: same bytes, mutually intelligible."""

    @staticmethod
    def twin():
        sched = Scheduler()
        net = Network(sched, seed=5)
        for h in ("a", "b"):
            net.add_node(h)
        net.add_link("a", "b", latency=0.001, bandwidth=1e7)
        return sched, net, MulticastGroup(net, "239.1.1.1", 5004)

    @staticmethod
    def tap(owner, sink):
        """Record every datagram ``owner`` (a socket or transport) receives."""
        deliver = owner.on_receive

        def on_receive(data, src):
            sink.append(data)
            deliver(data, src)

        owner.on_receive = on_receive

    @settings(max_examples=40, deadline=None)
    @given(
        st.text(max_size=12),
        st.sampled_from(["true", "role == 'medic'", "load > 3 and not busy"]),
        st.dictionaries(st.text(min_size=1, max_size=12), header_values, max_size=6),
        st.binary(max_size=4000),
        st.text(max_size=12),
    )
    def test_unicast_and_link_send_are_byte_identical_and_interoperate(
        self, sender, selector, headers, body, kind
    ):
        message = SemanticMessage.create(sender, selector, headers=headers, body=body, kind=kind)
        try:
            wire = encode_message(message)
        except WireError:
            assume(False)
        # net 1: an endpoint on "a" unicasts to a link on "b"
        sched1, net1, group1 = self.twin()
        ep_tx = SemanticEndpoint(net1, "a", group1, ClientProfile("a"), lambda d: None)
        by_link: list[SemanticMessage] = []
        link_rx = UnicastSemanticLink(net1, "b", by_link.append)
        from_endpoint: list[bytes] = []
        self.tap(link_rx.sock, from_endpoint)
        # net 2: a link on "a" — same (host, port), so same ssrc — sends
        # to an endpoint on "b" (promiscuous: whatever the selector says)
        sched2, net2, group2 = self.twin()
        link_tx = UnicastSemanticLink(net2, "a", lambda m: None, port=ep_tx.address[1])
        by_endpoint: list[SemanticMessage] = []
        ep_rx = SemanticEndpoint(
            net2,
            "b",
            group2,
            ClientProfile("b"),
            lambda d: by_endpoint.append(d.message),
            on_rejected=by_endpoint.append,
            promiscuous=True,
        )
        from_link: list[bytes] = []
        self.tap(ep_rx.transport, from_link)
        assert ep_tx.ssrc == link_tx.wire.ssrc

        assert ep_tx.unicast(message, link_rx.address) == link_tx.send(message, ep_rx.address)
        sched1.run_for(1.0)
        sched2.run_for(1.0)

        assert from_endpoint == from_link and from_link
        assert [encode_message(m) for m in by_link] == [wire]
        assert [encode_message(m) for m in by_endpoint] == [wire]
        assert ep_tx.sent_fragments == link_tx.wire.sent_fragments == len(from_link)


@pytest.mark.parametrize(
    "callable_",
    [SemanticEndpoint.__init__, SemanticEndpoint.over_transport, SemanticWire.__init__],
    ids=lambda c: c.__qualname__,
)
def test_no_fragment_repair_options(callable_):
    """Loss is repaired by receiver request above the wire; nothing here selects another way."""
    removed = {"nack", "mtu", "expire_interval", "retransmit"}
    assert not removed & set(inspect.signature(callable_).parameters)
