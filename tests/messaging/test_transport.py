"""Tests for the networked semantic endpoint."""

import inspect

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.matching import Decision
from repro.core.profiles import ClientProfile, TransformRule
from repro.messaging.message import SemanticMessage
from repro.messaging.broker import SemanticBus, offer
from repro.messaging.rtp import MAX_TRACKED_SOURCES, REORDER_WINDOW, RtpPacketizer
from repro.messaging.serialization import WireError, encode_message
from repro.core.policies import PolicyDatabase
from repro.messaging.sharded import ShardedSemanticBus
from repro.messaging.transport import (
    EXPIRE_INTERVAL,
    SemanticEndpoint,
    SemanticWire,
    UnicastSemanticLink,
    make_broker,
)
from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup, MulticastSocket
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
    """The endpoint's batch send: one slot per message, failures included."""

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
        got = []
        endpoint(net, group, "b", got)
        tx = endpoint(net, group, "a", [])
        good = SemanticMessage.create("a", "true")
        bad = SemanticMessage.create("a", "true", headers={"bad": {"un": 1}})
        with pytest.raises(WireError):
            tx.publish(bad)
        sent = tx.publish_many([good, bad, good])
        assert sent[0] is not None and sent[2] is not None
        assert sent[1] is None
        assert tx.sent_messages == 2
        sched.run_for(1.0)
        assert len(got) == 2


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
        """Record every datagram the socket ``owner`` receives."""
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
        # to an endpoint on "b" whose profile accepts every sampled selector
        sched2, net2, group2 = self.twin()
        link_tx = UnicastSemanticLink(net2, "a", lambda m: None, port=ep_tx.address[1])
        by_endpoint: list[SemanticMessage] = []
        ep_rx = SemanticEndpoint(
            net2,
            "b",
            group2,
            ClientProfile("b", {"role": "medic", "load": 5, "busy": False}),
            lambda d: by_endpoint.append(d.message),
        )
        from_link: list[bytes] = []
        self.tap(ep_rx.sock, from_link)
        assert ep_tx.ssrc == link_tx.wire.ssrc

        assert ep_tx.unicast(message, link_rx.address) == link_tx.send(message, ep_rx.address)
        sched1.run_for(1.0)
        sched2.run_for(1.0)

        assert from_endpoint == from_link and from_link
        assert [encode_message(m) for m in by_link] == [wire]
        assert [encode_message(m) for m in by_endpoint] == [wire]
        assert ep_tx.sent_fragments == link_tx.wire.sent_fragments == len(from_link)


FILLER = encode_message(SemanticMessage.create("z", "false"))


def torn_fragment(packetizer: RtpPacketizer) -> bytes:
    """Fragment 0 of a three-fragment message whose rest never arrives."""
    return packetizer.packetize(FILLER + bytes(2 * 1400))[0].encode()


class TestExpireAcrossTicks:
    """Abandonments land in the reassembler's monotone ``abandoned`` total,
    whichever side of the endpoint's 0.5 s tick they happen on."""

    @staticmethod
    def abandon_one(ep, ssrc):
        packetizer = RtpPacketizer(ssrc)
        ep.wire.ingest(torn_fragment(packetizer))
        for _ in range(REORDER_WINDOW + 1):  # traffic pushes it out of the window
            ep.wire.ingest(packetizer.packetize(FILLER)[0].encode())

    def test_abandonment_before_a_tick_is_reported_after_it(self, fabric):
        sched, net, group = fabric
        ep = endpoint(net, group, "a", [])
        r = ep.wire.reassembler
        self.abandon_one(ep, 7)
        assert r.abandoned == 1
        sched.run_for(3 * EXPIRE_INTERVAL)  # ticks fire
        assert r.abandoned == 1
        self.abandon_one(ep, 8)
        sched.run_for(EXPIRE_INTERVAL)
        self.abandon_one(ep, 9)
        assert r.abandoned == 3  # before and after a tick, nothing zeroed

    def test_abandonments_of_evicted_sources_are_kept(self, fabric):
        sched, net, group = fabric
        ep = endpoint(net, group, "a", [])
        r = ep.wire.reassembler
        before = r.abandoned
        for ssrc in range(MAX_TRACKED_SOURCES + 3):
            ep.wire.ingest(torn_fragment(RtpPacketizer(ssrc)))
            if ssrc == MAX_TRACKED_SOURCES // 2:
                sched.run_for(EXPIRE_INTERVAL)  # a tick mid-flood
        # the three stalest sources were evicted, their torn messages with them
        assert 0 not in r._sources
        assert r.abandoned - before == 3


@pytest.mark.parametrize(
    "callable_",
    [SemanticEndpoint.__init__, SemanticWire.__init__],
    ids=lambda c: c.__qualname__,
)
def test_no_fragment_repair_options(callable_):
    """Loss is repaired by receiver request above the wire; nothing here selects another way."""
    removed = {"nack", "mtu", "expire_interval", "retransmit"}
    assert not removed & set(inspect.signature(callable_).parameters)


#: broker-API options no caller set, by the callable that took them
REMOVED_OPTIONS = [
    (ShardedSemanticBus.__init__, {"queue_capacity", "slow_policy", "validate_profiles"}),
    (
        make_broker,
        {"expected_subscribers", "sharded_options", "queue_capacity", "slow_policy", "workers",
         "validate_profiles"},
    ),
    (SemanticEndpoint.publish, {"exclude"}),
    (SemanticEndpoint.publish_many, {"exclude", "suppress_errors"}),
    (SemanticBus.__init__, {"validate_profiles"}),
    (PolicyDatabase.__init__, {"validate"}),
    (offer, {"reject"}),
]


@pytest.mark.parametrize(
    "callable_,removed", REMOVED_OPTIONS, ids=[c.__qualname__ for c, _ in REMOVED_OPTIONS]
)
def test_no_broker_options_without_a_caller(callable_, removed):
    """One profile per endpoint, one delivery policy per bus, linting on demand."""
    params = inspect.signature(callable_).parameters
    assert not removed & set(params)
    assert not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())


def test_endpoint_is_one_receiver_not_a_bus():
    for name in ("attach", "detach", "subscribers", "stats", "expire", "published"):
        assert not hasattr(SemanticEndpoint, name), name


def test_endpoint_sits_on_one_socket(fabric):
    """No second constructor, no pluggable fabric, no reject tap."""
    import repro.messaging

    params = list(inspect.signature(SemanticEndpoint.__init__).parameters)
    assert params == ["self", "network", "host", "group", "profile", "on_delivery"]
    for name in ("over_transport", "transport", "promiscuous", "on_rejected"):
        assert not hasattr(SemanticEndpoint, name), name
    removed = {"Transport", "DatagramTransport", "SimTransport", "LoopbackUDP"}
    assert not removed & set(repro.messaging.__all__)
    assert not removed & set(vars(repro.messaging))
    _, net, group = fabric
    ep = SemanticEndpoint(net, "a", group, ClientProfile("a"), lambda d: None)
    assert isinstance(ep.sock, MulticastSocket)
    assert ep.address == (ep.sock.host, ep.sock.local_port)
    assert group.members == [ep.address]
    assert ep.scheduler is net.scheduler
    ep.close()
    assert ep.sock.closed
