"""NACK-driven selective retransmission: wire format, sender buffer,
receiver pacing, the reassembler clock regression, and end-to-end repair."""

import pytest

from repro.core.profiles import ClientProfile
from repro.messaging.message import SemanticMessage
from repro.messaging.rtp import (
    NACK_MAGIC,
    RetransmitBuffer,
    RtpError,
    RtpPacketizer,
    RtpReassembler,
    SelectiveRepeat,
    decode_nack,
    encode_nack,
    is_nack,
)
from repro.messaging.transport import SemanticEndpoint
from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup
from repro.network.simnet import Network


class TestNackWireFormat:
    def test_roundtrip(self):
        data = encode_nack(0xDEADBEEF, 42, (0, 3, 7))
        assert is_nack(data)
        assert decode_nack(data) == (0xDEADBEEF, 42, (0, 3, 7))

    def test_rtp_fragment_is_not_a_nack(self):
        pkt = RtpPacketizer(ssrc=1234, mtu=100).packetize(b"hello")[0]
        assert not is_nack(pkt.encode())

    def test_empty_indices_rejected(self):
        with pytest.raises(RtpError):
            encode_nack(1, 1, ())

    def test_index_out_of_range_rejected(self):
        with pytest.raises(RtpError):
            encode_nack(1, 1, (0x10000,))

    @pytest.mark.parametrize(
        "data",
        [
            b"RNA",  # truncated magic
            b"XXXX" + bytes(10),  # wrong magic
            NACK_MAGIC + bytes(5),  # shorter than the header
            encode_nack(1, 1, (0,))[:-1],  # truncated index list
            encode_nack(1, 1, (0,)) + b"\x00",  # trailing bytes
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(RtpError):
            decode_nack(data)


class TestRetransmitBuffer:
    def frags(self, body=b"x" * 250, mtu=100):
        return RtpPacketizer(ssrc=7, mtu=mtu).packetize(body)

    def test_hits_and_misses_counted(self):
        buf = RetransmitBuffer(capacity=4)
        packets = self.frags()
        buf.store(packets)
        msg_seq = packets[0].msg_seq
        got = buf.fragments(msg_seq, [0, 2, 99])
        assert [p.frag_index for p in got] == [0, 2]
        assert buf.hits == 2 and buf.misses == 1
        assert buf.fragments(msg_seq + 1, [0]) == []
        assert buf.misses == 2

    def test_oldest_message_evicted_wholesale(self):
        buf = RetransmitBuffer(capacity=2)
        packetizer = RtpPacketizer(ssrc=7, mtu=100)
        first = packetizer.packetize(b"a" * 200)
        buf.store(first)
        buf.store(packetizer.packetize(b"b" * 200))
        buf.store(packetizer.packetize(b"c" * 200))
        assert buf.retained_messages == 2
        assert buf.fragments(first[0].msg_seq, [0, 1]) == []  # evicted entirely

    def test_capacity_validated(self):
        with pytest.raises(RtpError):
            RetransmitBuffer(capacity=0)


class TestSelectiveRepeat:
    def test_first_request_immediate_then_backoff(self):
        sr = SelectiveRepeat(base_delay=0.2, multiplier=2.0, max_delay=2.0)
        pending = [(5, [1, 3])]
        assert sr.due(1, pending, now=0.0) == [(5, [1, 3])]
        assert sr.due(1, pending, now=0.1) == []  # inside the backoff
        assert sr.due(1, pending, now=0.25) == [(5, [1, 3])]
        # second gap doubles: not due again until 0.25 + 0.4
        assert sr.due(1, pending, now=0.5) == []
        assert sr.due(1, pending, now=0.7) == [(5, [1, 3])]

    def test_exhaustion_counted_once(self):
        sr = SelectiveRepeat(base_delay=0.1, max_attempts=2)
        pending = [(9, [0])]
        assert sr.due(1, pending, now=0.0)
        assert sr.due(1, pending, now=10.0)
        assert sr.exhausted(1, 9)
        assert sr.due(1, pending, now=20.0) == []
        assert sr.due(1, pending, now=30.0) == []
        assert sr.given_up == 1
        assert sr.exhausted(1, 9)

    def test_complete_messages_not_requested(self):
        sr = SelectiveRepeat()
        assert sr.due(1, [(5, [])], now=0.0) == []
        assert sr.requests == 0

    def test_prune_drops_dead_state(self):
        sr = SelectiveRepeat()
        sr.due(1, [(5, [0])], now=0.0)
        sr.due(2, [(6, [1])], now=0.0)
        sr.prune([(2, 6)])
        # pruned message starts over: first request admissible again
        assert sr.due(1, [(5, [0])], now=0.0) == [(5, [0])]
        assert sr.due(2, [(6, [1])], now=0.0) == []  # kept its backoff

    def test_forget_single_message(self):
        sr = SelectiveRepeat()
        sr.due(1, [(5, [0])], now=0.0)
        sr.forget(1, 5)
        assert sr.due(1, [(5, [0])], now=0.0) == [(5, [0])]

    def test_parameters_validated(self):
        with pytest.raises(RtpError):
            SelectiveRepeat(base_delay=0.0)
        with pytest.raises(RtpError):
            SelectiveRepeat(base_delay=1.0, max_delay=0.5)
        with pytest.raises(RtpError):
            SelectiveRepeat(multiplier=0.5)
        with pytest.raises(RtpError):
            SelectiveRepeat(max_attempts=0)


class TestReassemblerClock:
    """Regression: ``ingest(data, now=0.0)`` silently defeated ``expire``
    — every fragment looked forever-fresh.  The clock is now explicit."""

    def test_ingest_without_time_source_raises(self):
        r = RtpReassembler(lambda s, p: None)
        pkt = RtpPacketizer(ssrc=1, mtu=100).packetize(b"x")[0]
        with pytest.raises(RtpError, match="current time"):
            r.ingest(pkt.encode())

    def test_explicit_now_still_works(self):
        out = []
        r = RtpReassembler(lambda s, p: out.append(p))
        for pkt in RtpPacketizer(ssrc=1, mtu=100).packetize(b"y" * 50):
            r.ingest(pkt.encode(), now=1.5)
        assert out == [b"y" * 50]

    def test_constructor_clock_used_when_now_omitted(self):
        t = [0.0]
        out = []
        r = RtpReassembler(lambda s, p: out.append(p), clock=lambda: t[0], max_age=1.0)
        packets = RtpPacketizer(ssrc=1, mtu=100).packetize(b"z" * 150)
        r.ingest(packets[0].encode())  # partial: one of two fragments
        t[0] = 5.0
        assert r.expire() == 1  # the clock advanced; the partial aged out
        assert out == []

    def test_max_age_validated(self):
        with pytest.raises(RtpError):
            RtpReassembler(lambda s, p: None, max_age=0.0)


class TestEndToEndRepair:
    def build(self, loss=0.0, seed=3):
        """Loss only on the receiver's access link: the sender's side
        stays clean so the drill isolates receiver-side repair."""
        sched = Scheduler()
        net = Network(sched, seed=seed)
        net.add_node("sw")
        net.add_node("a")
        net.add_link("a", "sw", latency=0.001, bandwidth=1e7)
        net.add_node("b")
        net.add_link("b", "sw", latency=0.001, bandwidth=1e7, loss=loss)
        group = MulticastGroup(net, "239.1.1.1", 5004)
        got = []
        rx = SemanticEndpoint(
            net,
            "b",
            group,
            ClientProfile("b", {}),
            lambda d: got.append(d),
            nack=True,
            mtu=100,
            expire_interval=0.25,
        )
        tx = SemanticEndpoint(
            net,
            "a",
            group,
            ClientProfile("a", {}),
            lambda d: None,
            nack=True,
            mtu=100,
        )
        return sched, rx, tx, got

    def test_lossy_fragmented_message_repaired(self):
        sched, rx, tx, got = self.build(loss=0.15)
        body = bytes(range(256)) * 8  # ~2 KB -> ~21 fragments at mtu 100
        tx.publish(SemanticMessage.create("a", "true", body=body))
        sched.run_for(10.0)
        assert len(got) == 1
        assert got[0].message.body == body
        assert rx.nacks_sent >= 1
        assert tx.nacks_received >= 1
        assert tx.retransmitted_fragments >= 1

    def test_hostile_datagrams_teach_no_nack_address(self):
        """Regression: a return address was recorded for the first four
        bytes of *any* datagram, before the reassembler had accepted it,
        and never dropped — corrupted ssrc bits grew the map forever."""
        import random

        sched, rx, tx, got = self.build()
        rng = random.Random(7)
        with pytest.warns(Warning, match="undecodable RTP fragment"):
            for i in range(10_000):  # none reaches a fragment header's length
                rx._on_datagram(rng.randbytes(rng.randrange(4, 16)), ("mallory", 1 + i))
        assert rx._sources == {}
        assert rx.decode_failures == 10_000
        # corrupted ssrc bits on a real fragment do pass the reassembler:
        # each such "source" is asked for its holes a bounded number of
        # times, then forgotten
        first = tx.wire._packetizer.packetize(b"x" * 300)[0].encode()
        for i in range(200):
            rx._on_datagram(rng.randbytes(4) + first[4:], ("a", 1 + i))
        assert len(rx._sources) == 200
        sched.run_for(5.0)
        assert rx._sources == {}
        assert rx.nacks_sent == 200 * 4

    def test_repaired_source_is_forgotten_until_it_sends_again(self):
        sched, rx, tx, got = self.build(loss=0.15)
        tx.publish(SemanticMessage.create("a", "true", body=bytes(range(256)) * 8))
        sched.run_for(0.1)
        assert rx._sources == {tx.ssrc: tx.address}  # holes pending: address kept
        sched.run_for(10.0)
        assert len(got) == 1 and rx.nacks_sent >= 1
        assert rx._sources == {}  # nothing left to ask of it

    def test_lossless_run_sends_no_nacks(self):
        sched, rx, tx, got = self.build(loss=0.0)
        tx.publish(SemanticMessage.create("a", "true", body=b"q" * 500))
        sched.run_for(5.0)
        assert len(got) == 1
        assert rx.nacks_sent == 0
        assert tx.nacks_received == 0

    def test_nack_disabled_endpoint_ignores_requests(self):
        sched, rx, tx, got = self.build(loss=0.0)
        # a NACK aimed at tx's ssrc, but for a message it never sent
        nack = encode_nack(tx.ssrc, 999, (0,))
        tx._on_nack(nack, ("b", 5004))
        assert tx.nacks_received == 1
        assert tx.retransmitted_fragments == 0  # nothing buffered: all misses

    def test_counters_zero_when_disabled(self):
        sched = Scheduler()
        net = Network(sched, seed=1)
        net.add_node("sw")
        net.add_node("a")
        net.add_link("a", "sw", latency=0.001, bandwidth=1e7)
        group = MulticastGroup(net, "239.1.1.1", 5004)
        ep = SemanticEndpoint(
            net, "a", group, ClientProfile("a", {}), lambda d: None
        )
        assert not ep.nack_enabled
        assert ep._retransmit is None and ep._repair is None
