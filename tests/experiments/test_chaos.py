"""Regression suite for the seeded chaos drill.

Pins the properties the fault-injection subsystem promises: the
packet-disposition conservation invariant, which the drill's packet
tracer reconciles flow by flow, byte-identical replay of a full
collaboration session under the same seed, and recovery — once the
faults are over, the session history gives every peer what it missed —
followed by a clean leave.
"""

import struct
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import chaos
from repro.experiments.chaos import (
    DURATION,
    LEAVE_AT,
    LEAVER,
    _run,
    chaos_telemetry,
    default_chaos_plan,
    run_chaos,
)
from repro.messaging.rtp import RtpReassembler
from repro.network.faults import ChaosController
from repro.network.simnet import Packet

#: kinds a history replay never carries
NOT_REPLAYED = {"history-request", "join", "leave"}

#: tier-1 runs seed 0 and two seeds at which the drill corrupts an RTP
#: header (2, 5); the deep profile runs seeds 0-39 (recovery, leave, trace)
RECOVERY_SEEDS = range(40) if settings().max_examples > 100 else (0, 2, 5)
#: without the UDP checksum, a corrupted copy that still decoded rendered
#: one of alice's lines twice at seeds 17, 30 and 37
RENDER_SEEDS = range(40) if settings().max_examples > 100 else (17, 30, 37)


class TestChaosDrill:
    @pytest.fixture(scope="class")
    def result(self):
        return run_chaos(seed=0)

    def test_plan_covers_every_fault_family(self):
        kinds = {type(e).__name__ for e in default_chaos_plan().events}
        assert kinds == {
            "LinkFlap",
            "BurstLoss",
            "Partition",
            "AgentCrash",
            "LatencySpike",
            "Duplication",
            "Reordering",
            "Corruption",
        }
        assert default_chaos_plan().horizon <= DURATION

    def test_conservation_noted(self, result):
        assert any("conserved=True" in note for note in result.notes)

    def test_all_peers_reported(self, result):
        assert [row["peer"] for row in result.rows] == ["alice", "bob", "carol"]

    def test_session_survives_the_faults(self, result):
        # receivers still accept traffic despite the fault windows
        assert all(row["received"] > 0 for row in result.rows)
        # adaptation loops kept deciding through the darkness
        assert all(row["decisions"] > 0 for row in result.rows)

    def test_faults_actually_bite(self, result):
        # the crashed agent forces SNMP failures and fast-fails on bob
        by_peer = {row["peer"]: row["snmp_failures"] for row in result.rows}
        assert by_peer["bob"] > 0


class TestChaosDeterminism:
    def test_same_seed_byte_identical_telemetry(self):
        assert chaos_telemetry(seed=0) == chaos_telemetry(seed=0)

    def test_different_seed_different_telemetry(self):
        assert chaos_telemetry(seed=0) != chaos_telemetry(seed=1)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1))
    def test_replay_property_short_horizon(self, seed):
        """Any seed replays byte-identically (shorter run for speed)."""
        with mock.patch.object(chaos, "DURATION", 8.0):
            assert chaos_telemetry(seed=seed) == chaos_telemetry(seed=seed)

    def test_telemetry_reports_all_sections(self):
        blob = chaos_telemetry(seed=0)
        for marker in ("network: sent=", "trace: ", "chaos: ", "breakers: "):
            assert marker in blob


class TestChaosRecovery:
    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_catch_up_holds_every_message_once(self, seed):
        fw, _ = _run(seed, DURATION)
        peers = fw.wired_clients
        published = {
            name: {m.msg_id for _, m in c.archive.replay() if m.msg_id.sender == name and m.kind not in NOT_REPLAYED}
            for name, c in peers.items()
        }
        published_late = {
            name: {m.msg_id for t, m in c.archive.replay() if t > LEAVE_AT} for name, c in peers.items()
        }
        for name, client in peers.items():
            held = Counter(m.msg_id for _, m in client.archive.replay())
            assert set(held.values()) == {1}
            for other, ids in published.items():
                if other != name:
                    # the leaver holds what was published while she was a member
                    want = ids - published_late[other] if name == LEAVER else ids
                    assert want <= held.keys(), (name, other, sorted(map(str, want - held.keys())))
        net = fw.network
        assert net.packets_sent == net.packets_delivered + net.packets_dropped + net.packets_duplicated

    @pytest.mark.parametrize("seed", RENDER_SEEDS)
    def test_every_peer_renders_each_line_once(self, seed):
        fw, controller = _run(seed, DURATION)
        peers = fw.wired_clients
        sent = [(line.time, line.text) for line in peers["alice"].chat.lines if line.author == "alice"]
        for name in ("bob", LEAVER):
            held = Counter(line.text for line in peers[name].chat.lines if line.author == "alice")
            # the leaver holds the lines alice sent while she was a member
            want = Counter(text for t, text in sent if name != LEAVER or t < LEAVE_AT)
            assert held == want, (name, held - want, want - held)
        # every corrupted copy of these seeds fails the checksum
        report = controller.report()
        assert report["checksum_drops"] == report["corrupted"]
        net = fw.network
        assert net.packets_sent == net.packets_delivered + net.packets_dropped + net.packets_duplicated

    def test_damaged_header_does_not_silence_a_sender(self):
        # At seed 2, t = 17.0, the drill corrupts the copy of alice's
        # message-seq 29 that goes to bob.  Here that copy's damage is one
        # bit flipped 0 -> 1 in the message-seq's high word and 1 -> 0 in
        # the low word of the packet seq, which the reassembler ignores:
        # the ones'-complement sum holds, so the copy passes the checksum
        # and bob's reassembler sees an unconfirmed forward jump of 2**16.
        # Before the catch-up he must still be hearing her live.
        intercept, corrupt = ChaosController._intercept, ChaosController._corrupt_payload
        ingest = RtpReassembler.ingest
        packet: list[Packet] = []
        damaged: list[bytes] = []
        reached: list[RtpReassembler] = []

        def watch(controller, pkt, path, t):
            packet[:] = [pkt]
            return intercept(controller, pkt, path, t)

        def pair_flip(controller, payload):
            out = corrupt(controller, payload)  # the controller's draws pick the copy
            if out is None or (packet[0].src, packet[0].dst) != ("alice", "bob"):
                return out
            words = list(struct.unpack_from(">8H", payload))
            bit = words[7] & -words[7]
            assert bit and not words[2] & bit
            words[2] |= bit
            words[7] ^= bit
            damaged.append(struct.pack(">8H", *words) + payload[16:])
            return damaged[-1]

        def spy(reassembler, data):
            if data in damaged:
                reached.append(reassembler)
            ingest(reassembler, data)

        with mock.patch.object(ChaosController, "_intercept", watch), mock.patch.object(
            ChaosController, "_corrupt_payload", pair_flip
        ), mock.patch.object(RtpReassembler, "ingest", spy):
            fw, controller = _run(2, default_chaos_plan().horizon - 0.5)
        bob = fw.wired_clients["bob"]
        report = controller.report()
        assert len(damaged) == 1
        assert report["checksum_drops"] == report["corrupted"] - 1
        assert reached == [bob.endpoint.wire.reassembler]
        assert any(line.author == "alice" and line.time > 18.0 for line in bob.chat.lines)
        assert bob.endpoint.wire.reassembler.behind_window == 0

    def test_catch_up_brings_carol_the_image_she_missed(self):
        # carol is partitioned off while bob shares img-storm (t = 11)
        fw, _ = _run(0, DURATION)
        carol = fw.wired_clients["carol"]
        assert carol.viewer.viewed["img-storm"].assembly.usable_prefix == 16
        # ... and every chat line but alice's last (t = 23.0), sent after she left
        assert [len(c.chat.lines) for _, c in sorted(fw.wired_clients.items())] == [16, 16, 15]


class TestChaosLeaver:
    def test_leave_falls_between_the_catch_up_and_the_last_chat_line(self):
        assert default_chaos_plan().horizon < LEAVE_AT < 23.0 < DURATION

    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_the_leaver_is_out_of_every_roster_and_every_later_delivery(self, seed):
        fw, _ = _run(seed, DURATION)
        peers = fw.wired_clients
        leaver = peers[LEAVER]
        others = [c for name, c in sorted(peers.items()) if name != LEAVER]
        assert leaver.endpoint.sock.closed
        assert LEAVER not in {host for host, _ in fw.group.members}
        for client in peers.values():
            assert client.membership.members == sorted(c.name for c in others)
        # after her leave event, nothing of hers reaches the others ...
        for client in others:
            late = [m.kind for t, m in client.archive.replay() if t > LEAVE_AT and m.sender == LEAVER]
            assert late == ["leave"]
        # ... and nothing of the session reaches her: no transmission to
        # her host from another, and no delivery in her archive
        assert not [
            r for r in fw.network.tracer.records if r.time > LEAVE_AT and r.dst == LEAVER and r.src != LEAVER
        ]
        assert all(t <= LEAVE_AT for t, _ in leaver.archive.replay())
        # her adaptation loop ends with her membership: no later decision
        assert leaver.decision_log and all(t < LEAVE_AT for t, _ in leaver.decision_log)
        # while the others go on: alice's last chat line reaches bob
        alice, bob = others
        late_lines = [line for line in bob.chat.lines if line.time > LEAVE_AT]
        assert [line.author for line in late_lines] == ["alice"]


class TestChaosTrace:
    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_flows_add_up_to_the_network_counters(self, seed):
        fw, _ = _run(seed, DURATION)
        net = fw.network
        tracer = net.tracer
        flows = tracer.flows.values()
        assert sum(f.packets for f in flows) == tracer.total_packets == net.packets_sent
        assert len(tracer.records) == net.packets_sent
        assert sum(f.delivered for f in flows) == net.packets_delivered + net.packets_duplicated
        assert sum(f.dropped for f in flows) == net.packets_dropped
        assert sum(not r.delivered for r in tracer.records) == net.packets_dropped
        assert sum(f.octets for f in flows) == tracer.total_octets

    def test_telemetry_lists_every_flow(self):
        fw, _ = _run(0, DURATION)
        blob = chaos_telemetry(seed=0)
        for src, dst, port in fw.network.tracer.flows:
            assert f"  {src} -> {dst}:{port} " in blob
