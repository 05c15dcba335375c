"""Tests for the RTP-thin layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def pipe(mtu=200):
    """A packetizer feeding a reassembler; returns (pktzr, reasm, out)."""
    out = []
    packetizer = RtpPacketizer(ssrc=7, mtu=mtu)
    reassembler = RtpReassembler(lambda ssrc, payload: out.append((ssrc, payload)))
    return packetizer, reassembler, out


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
            RtpPacketizer(1, mtu=HEADER_SIZE)

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
        pa = RtpPacketizer(ssrc=1, mtu=100)
        pb = RtpPacketizer(ssrc=2, mtu=100)
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
        p, r, _ = pipe(mtu=100)
        frags = p.packetize(bytes(1000))
        for f in frags[::2]:  # drop every other fragment
            r.ingest(f.encode())
        rep = r.report(7)
        assert rep.cumulative_lost > 0
        assert 0.0 < rep.fraction_lost < 1.0

    def test_expire_abandons_old_messages(self):
        out = []
        p = RtpPacketizer(ssrc=7, mtu=100)
        r = RtpReassembler(lambda s, payload: out.append(payload))
        incomplete = p.packetize(bytes(500))
        r.ingest(incomplete[0].encode())  # fragment 0 only of msg 0
        for _ in range(REORDER_WINDOW):   # msg 0 is still inside the window
            r.ingest(p.packetize(b"ok")[0].encode())
        assert r.abandoned == 0 and len(r._partial) == 1
        r.ingest(p.packetize(b"ok")[0].encode())  # pushes msg 0 out
        assert r.abandoned == 1
        assert r.abandoned == 1  # reading it zeroes nothing
        assert r.report(7).messages_abandoned == 1
        assert out == [b"ok"] * (REORDER_WINDOW + 1) and not r._partial  # never delivered

    def test_clean_report(self):
        p, r, _ = pipe()
        for f in p.packetize(b"all good"):
            r.ingest(f.encode())
        rep = r.report(7)
        assert rep.cumulative_lost == 0
        assert rep.fraction_lost == 0.0
        assert rep.messages_completed == 1


class TestWindowBound:
    """Memory is bounded by ``REORDER_WINDOW`` by ``ingest`` alone: no
    timer is needed (the wireless-leg users have none)."""

    def test_ingest_abandons_and_forgets_behind_the_window(self):
        out = []
        p = RtpPacketizer(ssrc=7, mtu=100)
        r = RtpReassembler(lambda s, payload: out.append(payload))
        torn = p.packetize(bytes(500))
        r.ingest(torn[0].encode())  # msg 0 never completes
        first = p.packetize(b"m1")[0].encode()
        r.ingest(first)
        for i in range(2, 10 * REORDER_WINDOW):
            r.ingest(p.packetize(b"m%d" % i)[0].encode())
        assert len(r._partial) == 0
        assert len(r._delivered) <= REORDER_WINDOW + 1
        assert r.report(7).messages_abandoned == 1 and r.abandoned == 1
        # late fragments from behind the window neither re-open the torn
        # message nor re-deliver the completed one
        delivered = len(out)
        r.ingest(torn[1].encode())
        r.ingest(first)
        assert len(r._partial) == 0 and len(out) == delivered

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
        mobile = fw.add_wireless_client("mob", bs, radio_loss=0.2)
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
            assert r._stats, who  # saw traffic
            for ssrc in r._stats:
                held = sum(1 for s, _ in r._partial if s == ssrc)
                done = sum(1 for s, _ in r._delivered if s == ssrc)
                bound = REORDER_WINDOW + 1
                assert held <= bound and done <= bound, (who, held, done)
        for who in ("wireless link", "base station radio side"):
            stats = reassemblers[who]._stats.values()
            assert sum(st["abandoned"] for st in stats) > 0, who  # the bound did work


class TestSourceBound:
    """The number of tracked sources is bounded, not just each one's window."""

    def test_ssrc_flood_stays_bounded_and_established_source_completes_once(self):
        out = []
        r = RtpReassembler(lambda s, payload: out.append((s, payload)))
        p = RtpPacketizer(ssrc=7, mtu=100)
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
        assert len(r._stats) <= MAX_TRACKED_SOURCES
        assert len(r._partial) <= MAX_TRACKED_SOURCES
        assert len(r._delivered) <= MAX_TRACKED_SOURCES * (REORDER_WINDOW + 1)
        assert {s for s, _ in r._partial} | {s for s, _ in r._delivered} <= set(r._stats)
        assert out == [(7, b"hello"), (7, bytes(range(200)) * 5)]
        # every evicted source's partial went through the abandon accounting
        assert r.abandoned == flood - len(r._partial)
        assert r.report(7).messages_abandoned == 0  # nothing of the real source was torn

    def test_report_of_unknown_source_creates_no_state(self):
        _, r, _ = pipe()
        rep = r.report(12345)
        assert (rep.packets_received, rep.packets_expected, rep.highest_seq) == (0, 0, -1)
        assert (rep.messages_completed, rep.messages_abandoned) == (0, 0)
        assert rep.fraction_lost == 0.0
        assert 12345 not in r._stats
