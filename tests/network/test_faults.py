"""Tests for the deterministic fault-injection subsystem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import faults
from repro.network.clock import Scheduler
from repro.network.faults import (
    AgentCrash,
    BurstLoss,
    ChaosController,
    Corruption,
    Duplication,
    FaultPlan,
    FaultPlanError,
    LatencySpike,
    LinkFlap,
    Partition,
    Reordering,
)
from repro.network.simnet import Network, Packet


def line_net(seed=42):
    """a — b — c line topology with a receiver bound on every node."""
    net = Network(Scheduler(), seed=seed)
    for name in ("a", "b", "c"):
        net.add_node(name)
        net.node(name).bind(9, lambda p: None)
    net.add_link("a", "b", latency=0.001, bandwidth=1e6)
    net.add_link("b", "c", latency=0.001, bandwidth=1e6)
    return net


def blast(net, n=40, interval=0.1, src="a", dst="c"):
    """Schedule ``n`` periodic sends across the line."""
    for i in range(n):
        net.scheduler.call_at(
            i * interval, net.send, Packet(src, 1, dst, 9, bytes(50))
        )


class TestPlanValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(FaultPlanError):
            LinkFlap("a", "b", start=-1.0, duration=1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(FaultPlanError):
            LinkFlap("a", "b", start=0.0, duration=0.0)

    def test_self_flap_rejected(self):
        with pytest.raises(FaultPlanError):
            LinkFlap("a", "a", start=0.0, duration=1.0)

    def test_empty_partition_rejected(self):
        with pytest.raises(FaultPlanError):
            Partition((), start=0.0, duration=1.0)

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultPlanError):
            Duplication(start=0.0, duration=1.0, probability=1.5)

    def test_horizon_spans_last_window(self):
        plan = FaultPlan(
            events=(
                LinkFlap("a", "b", start=1.0, duration=2.0),
                LatencySpike(start=5.0, duration=4.0, extra=0.01),
            )
        )
        assert plan.horizon == 9.0

    def test_needs_interceptor_only_for_packet_events(self):
        assert not FaultPlan(
            events=(LinkFlap("a", "b", start=0.0, duration=1.0),)
        ).needs_interceptor()
        assert FaultPlan(
            events=(Duplication(start=0.0, duration=1.0),)
        ).needs_interceptor()

    def test_events_sorted_regardless_of_input_order(self):
        early = LinkFlap("a", "b", start=1.0, duration=1.0)
        late = LinkFlap("b", "c", start=5.0, duration=1.0)
        assert FaultPlan(events=(late, early)).events == FaultPlan(
            events=(early, late)
        ).events


class TestLinkFlap:
    def test_flap_window_drops_then_heals(self):
        net = line_net()
        plan = FaultPlan(events=(LinkFlap("a", "b", start=1.0, duration=1.0),))
        ChaosController(net, plan, seed=0).install()
        blast(net, n=30, interval=0.1)
        net.scheduler.run()
        # 0.0..0.9 up (10), 1.0..1.9 down (10), 2.0..2.9 up (10)
        assert net.packets_dropped == 10
        assert net.packets_delivered == 20
        assert net.link("a", "b").up

    def test_overlapping_windows_refcount(self):
        net = line_net()
        plan = FaultPlan(
            events=(
                LinkFlap("a", "b", start=1.0, duration=2.0),
                LinkFlap("a", "b", start=2.0, duration=2.0),
            )
        )
        controller = ChaosController(net, plan, seed=0).install()
        down_at = {}

        def probe(t):
            down_at[t] = not net.link("a", "b").up

        for t in (0.5, 1.5, 2.5, 3.5, 4.5):
            net.scheduler.call_at(t, probe, t)
        net.scheduler.run()
        # down through the union of the windows, up outside it
        assert down_at == {0.5: False, 1.5: True, 2.5: True, 3.5: True, 4.5: False}
        assert controller.flaps == 2


class TestPartition:
    def test_partition_cuts_and_heals_crossing_links(self):
        net = line_net()
        plan = FaultPlan(events=(Partition(("c",), start=1.0, duration=1.0),))
        controller = ChaosController(net, plan, seed=0).install()
        blast(net, n=30, interval=0.1)
        net.scheduler.run()
        assert controller.partitions == 1
        assert controller.links_cut == 1  # only b–c crosses the cut
        assert net.packets_dropped == 10
        assert net.link("b", "c").up

    def test_partition_group_on_both_none_crossing(self):
        net = line_net()
        plan = FaultPlan(
            events=(Partition(("a", "b", "c"), start=1.0, duration=1.0),)
        )
        controller = ChaosController(net, plan, seed=0).install()
        net.scheduler.run()
        assert controller.links_cut == 0


class TestBurstLoss:
    def test_burst_loss_drops_and_restores(self):
        net = line_net()
        link = net.link("a", "b")
        plan = FaultPlan(
            events=(
                BurstLoss(
                    "a",
                    "b",
                    start=0.0,
                    duration=3.0,
                    p_good_to_bad=0.5,
                    p_bad_to_good=0.1,
                    loss_bad=1.0,
                ),
            )
        )
        ChaosController(net, plan, seed=1).install()
        blast(net, n=25, interval=0.1)
        net.scheduler.run()
        assert 0 < net.packets_dropped < 25
        assert link.loss_fn is None  # restored after the window
        assert link.loss == 0.0

    def test_burst_sequence_seed_dependent_but_replayable(self):
        def run(seed):
            net = line_net()
            plan = FaultPlan(
                events=(BurstLoss("a", "b", start=0.0, duration=3.0),)
            )
            ChaosController(net, plan, seed=seed).install()
            blast(net, n=25, interval=0.1)
            net.scheduler.run()
            return net.packets_dropped

        assert run(5) == run(5)


class TestInterceptorEvents:
    def test_duplication_conserves_and_counts(self):
        net = line_net()
        plan = FaultPlan(
            events=(Duplication(start=0.0, duration=10.0, probability=1.0),)
        )
        controller = ChaosController(net, plan, seed=0).install()
        blast(net, n=20, interval=0.1)
        net.scheduler.run()
        assert controller.duplicated == 20
        assert net.packets_duplicated == 20
        assert net.packets_delivered == 0  # every packet became a dup pair
        assert net.copies_delivered == 40
        assert net.packets_sent == (
            net.packets_delivered + net.packets_dropped + net.packets_duplicated
        )

    def test_latency_spike_delays_delivery(self):
        net = line_net()
        times = []
        net.node("c").bind(11, lambda p: times.append(net.scheduler.clock.now))
        plan = FaultPlan(events=(LatencySpike(start=0.0, duration=5.0, extra=0.5),))
        ChaosController(net, plan, seed=0).install()
        net.scheduler.call_at(1.0, net.send, Packet("a", 1, "c", 11, b"x"))
        net.scheduler.run()
        assert times and times[0] >= 1.5

    def test_scoped_spike_ignores_other_paths(self):
        net = line_net()
        times = []
        net.node("b").bind(11, lambda p: times.append(net.scheduler.clock.now))
        plan = FaultPlan(
            events=(
                LatencySpike(
                    start=0.0, duration=5.0, extra=0.5, links=(("b", "c"),)
                ),
            )
        )
        ChaosController(net, plan, seed=0).install()
        net.scheduler.call_at(1.0, net.send, Packet("a", 1, "b", 11, b"x"))
        net.scheduler.run()
        assert times and times[0] < 1.1  # a–b path never crosses b–c

    def test_empty_plan_installs_no_interceptor(self):
        net = line_net()
        ChaosController(net, FaultPlan(), seed=0).install()
        assert net.delivery_interceptor is None

    def test_empty_plan_hooks_nothing(self):
        """An installed empty plan leaves the network as it found it: no
        interceptor, no topology listener, no loss hook, no scheduled
        event; a packet storm then settles exactly as with no controller."""

        def storm(plan):
            net = line_net()
            if plan is not None:
                ChaosController(net, plan, seed=0).install()
                assert net.delivery_interceptor is None
                assert net._topology_listeners == []
                assert all(link.loss_fn is None for link in net.links)
                assert net.scheduler.pending == 0
            blast(net, n=3_000, interval=1e-5)
            net.scheduler.run()
            return (
                net.packets_sent,
                net.packets_delivered,
                net.packets_dropped,
                net.packets_duplicated,
                net.copies_delivered,
                net.rng.bit_generator.state,
            )

        bare = storm(None)
        assert bare[:2] == (3_000, 3_000)
        assert storm(FaultPlan()) == bare

    def test_second_interceptor_rejected(self):
        net = line_net()
        plan = FaultPlan(events=(Duplication(start=0.0, duration=1.0),))
        ChaosController(net, plan, seed=0).install()
        with pytest.raises(FaultPlanError):
            ChaosController(net, plan, seed=0).install()


def rfc1071_sum(data):
    """RFC 1071's loop: add the 16-bit big-endian words (odd byte padded
    with zero), folding each carry back in; 0..0xFFFF."""
    if len(data) % 2:
        data += b"\0"
    total = 0
    for i in range(0, len(data), 2):
        total += data[i] << 8 | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return total


def checksum_accepts(sent, received):
    """A receiver's RFC 768 check of ``received`` against the checksum the
    sender computed over ``sent``: the complement of the sum, zero sent as
    all ones, and the received words plus it must fold to all ones."""
    checksum = ~rfc1071_sum(sent) & 0xFFFF or 0xFFFF
    total = rfc1071_sum(received) + checksum
    return (total & 0xFFFF) + (total >> 16) == 0xFFFF


class TestChecksum:
    def test_reference_check(self):
        assert checksum_accepts(b"\x12\x34\x56", b"\x12\x34\x56")
        assert not checksum_accepts(b"\x12\x34\x56", b"\x12\x35\x56")
        # swapped words keep the sum; so does 0xFFFF, through the end-around carry
        assert checksum_accepts(b"\x12\x34\x56\x78", b"\x56\x78\x12\x34")
        assert checksum_accepts(b"\x00\x01\xff\xff", b"\x00\x00\x00\x01")
        # the sum's two zeros: the check cannot tell 0x0000 from 0xFFFF
        assert checksum_accepts(b"\xff\xff", b"\x00\x00")

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=80),
        flips=st.lists(st.integers(0, 80 * 8 - 1), min_size=1, max_size=4),
    )
    def test_controller_sum_agrees_with_the_reference(self, data, flips):
        damaged = bytearray(data)
        for bit in flips:
            damaged[bit // 8 % len(data)] ^= 1 << bit % 8
        damaged = bytes(damaged)
        same = faults._ones_complement_sum(damaged) == faults._ones_complement_sum(data)
        assert same == checksum_accepts(data, damaged)

    def test_a_copy_failing_the_checksum_is_dropped(self):
        # one flipped bit always changes the sum
        net = line_net()
        got = []
        net.node("c").bind(11, got.append)
        plan = FaultPlan(events=(Corruption(start=0.0, duration=10.0, probability=1.0, max_flips=1),))
        controller = ChaosController(net, plan, seed=0).install()
        for i in range(20):
            net.scheduler.call_at(i * 0.1, net.send, Packet("a", 1, "c", 11, bytes([i]) * 50))
        net.scheduler.run()
        assert got == []
        assert controller.corrupted == controller.checksum_drops == 20
        assert controller.report()["checksum_drops"] == 20
        assert (net.packets_sent, net.packets_dropped) == (20, 20)

    def test_damage_the_checksum_cannot_see_is_delivered(self, monkeypatch):
        net = line_net()
        got = []
        net.node("c").bind(11, lambda p: got.append(p.payload))
        plan = FaultPlan(events=(Corruption(start=0.0, duration=10.0, probability=1.0),))
        controller = ChaosController(net, plan, seed=0).install()
        # swapping the first two words keeps the ones'-complement sum
        monkeypatch.setattr(controller, "_corrupt_payload", lambda p: p[2:4] + p[:2] + p[4:])
        net.scheduler.call_at(0.5, net.send, Packet("a", 1, "c", 11, b"\x12\x34\x56\x78\x9a"))
        net.scheduler.run()
        assert got == [b"\x56\x78\x12\x34\x9a"]
        assert controller.checksum_drops == 0
        assert net.packets_delivered == 1



class TestAgentCrash:
    def test_crash_requires_registered_agent(self):
        net = line_net()
        plan = FaultPlan(events=(AgentCrash("a", start=1.0, duration=1.0),))
        with pytest.raises(FaultPlanError):
            ChaosController(net, plan, seed=0).install()

    def test_crash_window_toggles_agent(self):
        from repro.network.udp import DatagramSocket
        from repro.snmp.agent import SnmpAgent
        from repro.snmp.mib import MibTree

        net = line_net()
        agent = SnmpAgent(DatagramSocket(net, "a"), MibTree())
        plan = FaultPlan(events=(AgentCrash("a", start=1.0, duration=1.0),))
        controller = ChaosController(net, plan, seed=0, agents={"a": agent}).install()
        alive_at = {}
        for t in (0.5, 1.5, 2.5):
            net.scheduler.call_at(t, lambda t=t: alive_at.__setitem__(t, agent.alive))
        net.scheduler.run()
        assert alive_at == {0.5: True, 1.5: False, 2.5: True}
        assert controller.crashes == 1 and controller.restarts == 1


def full_plan():
    return FaultPlan(
        events=(
            LinkFlap("a", "b", start=0.5, duration=0.4),
            Partition(("c",), start=1.0, duration=0.5),
            BurstLoss("b", "c", start=1.6, duration=0.6),
            Duplication(start=2.2, duration=0.6, probability=0.5),
            Reordering(start=2.4, duration=0.6, probability=0.5),
            LatencySpike(start=3.0, duration=0.5, extra=0.02),
        )
    )


def run_full(seed):
    net = line_net(seed=42)
    controller = ChaosController(net, full_plan(), seed=seed).install()
    blast(net, n=40, interval=0.1)
    net.scheduler.run()
    counters = (
        net.packets_sent,
        net.packets_delivered,
        net.packets_dropped,
        net.packets_duplicated,
        net.copies_delivered,
    )
    return counters, controller.report()


class TestDeterminism:
    def test_conservation_under_full_plan(self):
        (sent, delivered, dropped, duplicated, copies), report = run_full(seed=0)
        assert sent == delivered + dropped + duplicated
        assert copies >= delivered + duplicated
        assert report["events_started"] == report["events_ended"] == 6

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    def test_fixed_seed_replays_identically(self, seed):
        assert run_full(seed) == run_full(seed)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p_dup=st.floats(0.0, 1.0),
        p_reorder=st.floats(0.0, 1.0),
        flap_start=st.floats(0.0, 2.0),
    )
    def test_replay_determinism_property(self, seed, p_dup, p_reorder, flap_start):
        """Any plan + seed replays byte-identically and conserves packets."""
        plan = FaultPlan(
            events=(
                LinkFlap("a", "b", start=flap_start, duration=0.3),
                BurstLoss("b", "c", start=0.5, duration=1.0),
                Duplication(start=0.0, duration=4.0, probability=p_dup),
                Reordering(start=0.0, duration=4.0, probability=p_reorder),
            )
        )

        def run():
            net = line_net(seed=42)
            controller = ChaosController(net, plan, seed=seed).install()
            blast(net, n=30, interval=0.1)
            net.scheduler.run()
            return (
                net.packets_sent,
                net.packets_delivered,
                net.packets_dropped,
                net.packets_duplicated,
                net.copies_delivered,
            ), controller.report()

        first, second = run(), run()
        assert first == second
        sent, delivered, dropped, duplicated, _ = first[0]
        assert sent == delivered + dropped + duplicated


class TestUninstall:
    def test_uninstall_detaches_interceptor(self):
        net = line_net()
        plan = FaultPlan(events=(Duplication(start=0.0, duration=1.0),))
        controller = ChaosController(net, plan, seed=0).install()
        controller.uninstall()
        assert net.delivery_interceptor is None
