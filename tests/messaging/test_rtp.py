"""Tests for the RTP-thin layer."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.messaging import rtp
from repro.messaging.rtp import (
    DEFAULT_MTU,
    HEADER_SIZE,
    MAX_TRACKED_SOURCES,
    REORDER_WINDOW,
    RtpError,
    RtpPacket,
    RtpPacketizer,
    RtpReassembler,
)


def packetizer(ssrc, mtu):
    """A packetizer whose fragments fit ``mtu`` bytes, not the deployed
    :data:`~repro.messaging.rtp.DEFAULT_MTU`."""
    with mock.patch.object(rtp, "DEFAULT_MTU", mtu):
        return RtpPacketizer(ssrc)


def pipe(mtu=200):
    """A packetizer feeding a reassembler; returns (pktzr, reasm, out)."""
    out = []
    reassembler = RtpReassembler(lambda ssrc, payload: out.append((ssrc, payload)))
    return packetizer(7, mtu), reassembler, out


class TestPacketizer:
    def test_small_payload_single_fragment(self):
        p, _, _ = pipe()
        frags = p.packetize(b"short")
        assert len(frags) == 1
        assert frags[0].frag_count == 1

    def test_large_payload_fragments(self):
        p, _, _ = pipe(mtu=100)
        payload = bytes(1000)
        frags = p.packetize(payload)
        budget = 100 - HEADER_SIZE
        assert len(frags) == -(-1000 // budget)
        assert b"".join(f.payload for f in frags) == payload

    def test_empty_payload_one_fragment(self):
        p, _, _ = pipe()
        frags = p.packetize(b"")
        assert len(frags) == 1
        assert frags[0].payload == b""

    def test_seq_numbers_global_and_increasing(self):
        p, _, _ = pipe(mtu=100)
        seqs = [f.seq for f in p.packetize(bytes(500)) + p.packetize(bytes(500))]
        assert seqs == list(range(len(seqs)))

    def test_msg_seq_per_message(self):
        p, _, _ = pipe()
        a = p.packetize(b"1")[0]
        b = p.packetize(b"2")[0]
        assert b.msg_seq == a.msg_seq + 1

    def test_tiny_mtu_rejected(self):
        with pytest.raises(RtpError):
            packetizer(1, HEADER_SIZE)

    def test_header_roundtrip(self):
        pkt = RtpPacket(0xDEADBEEF, 42, 3, 9, 1000, b"chunk")
        rt = RtpPacket.decode(pkt.encode())
        assert rt == pkt

    def test_malformed_fragment_rejected(self):
        with pytest.raises(RtpError):
            RtpPacket.decode(b"short")
        bad = RtpPacket(1, 1, 5, 3, 1, b"")  # index >= count
        with pytest.raises(RtpError):
            RtpPacket.decode(bad.encode())


class TestReassembly:
    def test_in_order_delivery(self):
        p, r, out = pipe(mtu=100)
        payload = bytes(range(256)) * 4
        for f in p.packetize(payload):
            r.ingest(f.encode())
        assert out == [(7, payload)]

    def test_out_of_order_reassembly(self):
        p, r, out = pipe(mtu=100)
        payload = b"abcdefgh" * 100
        frags = p.packetize(payload)
        rng = np.random.default_rng(0)
        for i in rng.permutation(len(frags)):
            r.ingest(frags[i].encode())
        assert out == [(7, payload)]

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=2000), st.integers(0, 1000))
    def test_permutation_roundtrip_property(self, payload, seed):
        p, r, out = pipe(mtu=64)
        frags = p.packetize(payload)
        rng = np.random.default_rng(seed)
        for i in rng.permutation(len(frags)):
            r.ingest(frags[i].encode())
        assert out == [(7, payload)]

    def test_duplicate_fragments_ignored(self):
        p, r, out = pipe(mtu=100)
        frags = p.packetize(bytes(300))
        for f in frags:
            r.ingest(f.encode())
            r.ingest(f.encode())  # dup
        assert len(out) == 1

    def test_duplicate_after_completion_ignored(self):
        p, r, out = pipe()
        f = p.packetize(b"x")[0]
        r.ingest(f.encode())
        r.ingest(f.encode())
        assert len(out) == 1

    def test_interleaved_messages(self):
        p, r, out = pipe(mtu=100)
        f1 = p.packetize(b"1" * 300)
        f2 = p.packetize(b"2" * 300)
        for a, b in zip(f1, f2):
            r.ingest(a.encode())
            r.ingest(b.encode())
        assert [payload for _, payload in out] == [b"1" * 300, b"2" * 300]

    def test_two_sources_independent(self):
        out = []
        r = RtpReassembler(lambda ssrc, payload: out.append(ssrc))
        pa = packetizer(1, 100)
        pb = packetizer(2, 100)
        for f in pa.packetize(b"a" * 150) + pb.packetize(b"b" * 150):
            r.ingest(f.encode())
        assert sorted(out) == [1, 2]

    def test_inconsistent_frag_count_rejected(self):
        _, r, _ = pipe()
        r.ingest(RtpPacket(7, 0, 0, 3, 0, b"x").encode())
        with pytest.raises(RtpError):
            r.ingest(RtpPacket(7, 0, 1, 4, 1, b"y").encode())


class TestLossAccounting:
    def test_report_counts_loss(self):
        p, r, out = pipe(mtu=100)
        frags = p.packetize(bytes(1000))
        for f in frags[::2]:  # drop every other fragment
            r.ingest(f.encode())
        for _ in range(REORDER_WINDOW + 1):  # newer traffic settles the torn message
            r.ingest(p.packetize(b"ok")[0].encode())
        assert r.abandoned == 1 and r.behind_window == 0
        for f in frags[1::2]:  # the rest arrives too late
            r.ingest(f.encode())
        assert r.behind_window == len(frags[1::2])
        assert out == [(7, b"ok")] * (REORDER_WINDOW + 1)

    def test_expire_abandons_old_messages(self):
        out = []
        p = packetizer(7, 100)
        r = RtpReassembler(lambda s, payload: out.append(payload))
        incomplete = p.packetize(bytes(500))
        r.ingest(incomplete[0].encode())  # fragment 0 only of msg 0
        for _ in range(REORDER_WINDOW):   # msg 0 is still inside the window
            r.ingest(p.packetize(b"ok")[0].encode())
        assert r.abandoned == 0 and len(r._partial) == 1
        r.ingest(p.packetize(b"ok")[0].encode())  # pushes msg 0 out
        assert r.abandoned == 1
        assert r.abandoned == 1  # reading it zeroes nothing
        assert out == [b"ok"] * (REORDER_WINDOW + 1) and not r._partial  # never delivered

    def test_clean_report(self):
        p, r, out = pipe()
        for f in p.packetize(b"all good"):
            r.ingest(f.encode())
        assert out == [(7, b"all good")]
        assert r.abandoned == r.behind_window == 0


class TestWindowBound:
    """Memory is bounded by ``REORDER_WINDOW`` by ``ingest`` alone: no
    timer is needed (the wireless-leg users have none)."""

    def test_ingest_abandons_and_forgets_behind_the_window(self):
        out = []
        p = packetizer(7, 100)
        r = RtpReassembler(lambda s, payload: out.append(payload))
        torn = p.packetize(bytes(500))
        r.ingest(torn[0].encode())  # msg 0 never completes
        first = p.packetize(b"m1")[0].encode()
        r.ingest(first)
        for i in range(2, 10 * REORDER_WINDOW):
            r.ingest(p.packetize(b"m%d" % i)[0].encode())
        assert len(r._partial) == 0
        assert len(r._delivered) <= REORDER_WINDOW + 1
        assert r.abandoned == 1
        # late fragments from behind the window neither re-open the torn
        # message nor re-deliver the completed one: they are dropped and counted
        delivered = len(out)
        r.ingest(torn[1].encode())
        r.ingest(first)
        assert len(r._partial) == 0 and len(out) == delivered
        assert r.behind_window == 2

    def test_hostile_msg_seq_jump_is_constant_work(self):
        p, r, out = pipe()
        r.ingest(p.packetize(b"a")[0].encode())
        far = RtpPacket(7, 0xFFFFFFF0, 0, 1, 1, b"b")
        r.ingest(far.encode())  # must not walk 2**32 message-seqs
        assert [payload for _, payload in out] == [b"a", b"b"]
        assert r._delivered == {(7, 0xFFFFFFF0)}

    def test_soak_all_three_users_stay_within_the_window(self):
        from repro.core.framework import CollaborationFramework

        fw = CollaborationFramework("soak", objective="rtp bound", seed=3)
        alice = fw.add_wired_client("alice")
        bob = fw.add_wired_client("bob")
        bs = fw.add_base_station("bs")
        mobile = fw.add_wireless_client("mob", bs)
        fw.network.link("mob", "bs").loss = 0.2
        for c in (alice, bob):
            c.join()
        fw.run_for(0.5)
        for i in range(200):  # 4-fragment messages, both ways over the lossy radio
            alice.send_chat(f"{i}:" + "d" * 4000)
            mobile.send_event(alice.chat.compose(f"{i}:" + "u" * 4000))
            fw.run_for(0.1)
        reassemblers = {
            "wired endpoint": bob.endpoint.wire.reassembler,
            "wireless link": mobile.link.wire.reassembler,
            "base station radio side": bs.radio.wire.reassembler,
        }
        for who, r in reassemblers.items():
            assert r._sources, who  # saw traffic
            for ssrc in r._sources:
                held = sum(1 for s, _ in r._partial if s == ssrc)
                done = sum(1 for s, _ in r._delivered if s == ssrc)
                bound = REORDER_WINDOW + 1
                assert held <= bound and done <= bound, (who, held, done)
        for who in ("wireless link", "base station radio side"):
            assert reassemblers[who].abandoned > 0, who  # the bound did work


class TestSourceBound:
    """The number of tracked sources is bounded, not just each one's window."""

    def test_ssrc_flood_stays_bounded_and_established_source_completes_once(self):
        out = []
        r = RtpReassembler(lambda s, payload: out.append((s, payload)))
        p = packetizer(7, 100)
        r.ingest(p.packetize(b"hello")[0].encode())  # source 7 is established
        frags = p.packetize(bytes(range(200)) * 5)  # in-window message, 12 fragments
        flood = 10_000
        every = MAX_TRACKED_SOURCES // 2  # heard often enough to stay tracked
        for i in range(flood):
            # one fragment of a never-completed 2-fragment message per hostile ssrc
            r.ingest(RtpPacket(1_000_000 + i, 0, 0, 2, 0, b"x").encode())
            if i % every == 0 and frags:
                r.ingest(frags.pop(0).encode())
        assert not frags
        assert len(r._sources) <= MAX_TRACKED_SOURCES
        assert len(r._partial) <= MAX_TRACKED_SOURCES
        assert len(r._delivered) <= MAX_TRACKED_SOURCES * (REORDER_WINDOW + 1)
        assert {s for s, _ in r._partial} | {s for s, _ in r._delivered} <= set(r._sources)
        assert out == [(7, b"hello"), (7, bytes(range(200)) * 5)]
        # every evicted source's partial went through the abandon accounting
        assert r.abandoned == flood - len(r._partial)


def single(msg_seq, payload=b"", ssrc=7):
    """One single-fragment message with a given message-seq, as on the wire."""
    return RtpPacket(ssrc, msg_seq, 0, 1, msg_seq, payload or b"m%d" % msg_seq).encode()


class TestForwardJumps:
    """A forward jump of more than the window is provisional: one damaged
    header must not silence its source for the rest of the run."""

    def test_one_corrupted_header_does_not_silence_its_source(self):
        # the chaos drill at seed 2: bob holds alice up to message-seq 28,
        # then 29 arrives with bit 23 of its message-seq flipped
        out = []
        r = RtpReassembler(lambda s, payload: out.append(payload))
        for m in range(29):
            r.ingest(single(m))
        r.ingest(single(29 | 1 << 23, b"m29"))  # the first fragment after a jump is taken
        for m in range(30, 40):
            r.ingest(single(m))
        assert out == [b"m%d" % m for m in range(40)]
        assert r.behind_window == 0 and r._sources[7].newest == 39
        r.ingest(single(27))  # the restored window still knows what it delivered
        assert len(out) == 40

    def test_unicast_jumps_are_taken_at_once(self):
        # a base station's one packetizer serves every mobile: the
        # message-seqs one mobile hears jump past the window each time
        out = []
        r = RtpReassembler(lambda s, payload: out.append(payload))
        seqs = [0, 1, 100, 300, 301, 900, 2000]
        for m in seqs:
            r.ingest(single(m))
        assert out == [b"m%d" % m for m in seqs] and r.behind_window == 0

    def test_confirmed_jump_drops_the_old_sequence(self):
        _, r, out = pipe()
        for m in (0, 1, 2, 500, 501):  # 501 lands in 500's window: the jump is real
            r.ingest(single(m))
        assert r._sources[7].prior is None
        r.ingest(single(3))
        assert r.behind_window == 1 and len(out) == 5

    def test_second_damaged_header_does_not_confirm_the_first(self):
        _, r, out = pipe()
        for m in range(10):
            r.ingest(single(m))
        r.ingest(single(10 | 1 << 23))
        r.ingest(single(11 | 1 << 30))  # outside both windows: nothing settled
        assert r.behind_window == 0 and r._sources[7].prior == 9
        r.ingest(single(12))
        assert r._sources[7].newest == 12 and r._sources[7].prior is None
        assert len(out) == 13

    def test_restore_settles_the_jumped_window(self):
        _, r, _ = pipe()
        r.ingest(single(0))
        r.ingest(RtpPacket(7, 1 << 20, 0, 2, 1, b"half").encode())  # a torn jumped message
        r.ingest(single(1))
        assert r.abandoned == 1 and not r._partial
        assert {m for _, m in r._delivered} == {0, 1}


class TestAgainstRawDatagrams:
    """The RTP-thin layer against raw datagrams on an image-sized stream:
    "reliable and ordered delivery of these packets is critical for
    successful reconstruction" (Sec. 5.1)."""

    MESSAGES = 60
    SIZE = 6000

    def transmit(self, loss_rate):
        """60 messages through an iid-loss channel that swaps neighbouring
        fragments with probability 0.3; (sent, received, reassembler)."""
        rng = np.random.default_rng(0)
        out = []
        packetizer = RtpPacketizer(ssrc=1)
        reassembler = RtpReassembler(lambda s, payload: out.append(payload))
        sent = [bytes([i % 256]) * self.SIZE for i in range(self.MESSAGES)]
        wire = [f.encode() for payload in sent for f in packetizer.packetize(payload)]
        survivors = [w for w in wire if rng.random() >= loss_rate]
        for i in range(0, len(survivors) - 1, 2):
            if rng.random() < 0.3:
                survivors[i], survivors[i + 1] = survivors[i + 1], survivors[i]
        for w in survivors:
            reassembler.ingest(w)
        return sent, out, reassembler

    def test_lossless_channel_delivers_every_message_in_order(self):
        sent, received, reassembler = self.transmit(0.0)
        assert received == sent  # all messages, in order, byte-exact
        assert not reassembler._partial and reassembler.abandoned == 0

    def test_loss_leaves_no_torn_message(self):
        sent, received, reassembler = self.transmit(0.05)
        # every completed message is byte-exact (no torn reassembly)
        assert all(r in sent for r in received)
        # a useful fraction still completes at 5% fragment loss
        assert len(received) >= 0.5 * len(sent)
        assert len(received) < len(sent) and reassembler._partial  # the torn ones wait, unreported

    def test_header_overhead_under_two_percent(self):
        frags = RtpPacketizer(ssrc=1).packetize(b"x" * self.SIZE)
        assert sum(len(f.encode()) for f in frags) / self.SIZE < 1.02

    def test_raw_concatenation_corrupts_messages(self):
        """Without reassembly, fragments are not messages: a consumer that
        concatenates what arrives corrupts > 10 % of the transfers at 5 %
        loss and the same reordering."""
        rng = np.random.default_rng(1)
        packetizer = RtpPacketizer(ssrc=1)
        corrupted = 0
        for i in range(self.MESSAGES):
            payload = bytes([i % 256]) * self.SIZE
            frags = [f.payload for f in packetizer.packetize(payload) if rng.random() >= 0.05]
            if len(frags) >= 2 and rng.random() < 0.3:
                frags[0], frags[1] = frags[1], frags[0]
            corrupted += b"".join(frags) != payload
        assert corrupted / self.MESSAGES > 0.1
