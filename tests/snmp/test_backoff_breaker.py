"""Retry spacing, exponential backoff, and the per-agent circuit breaker."""

import pytest

from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket
from repro.snmp.agent import SnmpAgent
from repro.snmp.ber import Gauge32
from repro.snmp.errors import SnmpCircuitOpen, SnmpTimeout
from repro.snmp.manager import (
    BACKOFF_MAX,
    BREAKER_COOLDOWN,
    BREAKER_THRESHOLD,
    JITTER_FRAC,
    CircuitBreaker,
    SnmpManager,
)
from repro.snmp.mib import MibTree
from repro.snmp.oids import TASSL


def build(agent_present=True, **mgr_kwargs):
    sched = Scheduler()
    net = Network(sched, seed=1)
    net.add_node("mgr")
    net.add_node("host1")
    net.add_link("mgr", "host1", latency=0.002, bandwidth=1e6)
    agent = None
    if agent_present:
        tree = MibTree()
        tree.register_scalar(TASSL.hostCpuLoad, Gauge32(42))
        agent = SnmpAgent(DatagramSocket(net, "host1"), tree)
    mgr = SnmpManager(DatagramSocket(net, "mgr"), sched, **mgr_kwargs)
    return sched, net, agent, mgr


class TestRetrySpacing:
    """Regression: a drained event queue must not burn all retries at one
    virtual instant — the original loop broke out of the wait when
    ``step()`` returned False, so every attempt fired at the same time."""

    def test_drained_queue_attempts_advance_the_clock(self):
        sched, _, _, mgr = build(agent_present=False, timeout=0.5, retries=3)
        with pytest.raises(SnmpTimeout):
            mgr.get("host1", [TASSL.hostCpuLoad])
        times = mgr.last_attempt_times
        assert len(times) == 4
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d > 0 for d in deltas), f"attempts not spaced: {times}"
        # exponential: each inter-attempt gap strictly exceeds the last
        # (multiplier 2.0 dominates the ±10% jitter band)
        assert all(b > a for a, b in zip(deltas, deltas[1:])), deltas

    def test_clock_past_all_timeouts_after_failure(self):
        sched, _, _, mgr = build(agent_present=False, timeout=0.5, retries=2)
        with pytest.raises(SnmpTimeout):
            mgr.get("host1", [TASSL.hostCpuLoad])
        # 3 attempts × 0.5 timeout + 2 backoff sleeps ≥ 1.5 virtual seconds
        assert sched.clock.now >= 1.5

    def test_backoff_delay_deterministic_and_bounded(self):
        _, _, _, mgr = build(timeout=1.0)
        d1 = mgr._backoff_delay(17, 0)
        d2 = mgr._backoff_delay(17, 0)
        assert d1 == d2  # pure function of (request_id, attempt)
        assert d1 != mgr._backoff_delay(18, 0)  # decorrelated across requests
        for attempt in range(12):
            assert mgr._backoff_delay(5, attempt) <= BACKOFF_MAX * mgr.timeout * (1 + JITTER_FRAC)

    @pytest.mark.parametrize("timeout", [1.0, 0.5, 0.1, 0.05, 0.3, 2.5])
    def test_backoff_delay_bit_identical_to_the_keyword_defaults(self, timeout):
        """The constants replaced ``backoff_base=timeout / 2.0``,
        ``backoff_multiplier=2.0``, ``backoff_max=8.0 * timeout`` and
        ``jitter_frac=0.1``; every delay keeps its exact float value."""
        _, _, _, mgr = build(timeout=timeout)
        for request_id in (1, 2, 17, 1000, 2**31):
            for attempt in range(8):
                delay = min(8.0 * timeout, timeout / 2.0 * 2.0 ** attempt)
                h = (request_id * 2654435761 + attempt * 40503) % 10_000
                delay *= 1.0 + 0.1 * (h / 5_000.0 - 1.0)
                assert mgr._backoff_delay(request_id, attempt) == delay

    def test_successful_request_single_attempt(self):
        _, _, _, mgr = build()
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42
        assert len(mgr.last_attempt_times) == 1


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fails_fast(self):
        sched, _, _, mgr = build(agent_present=False, timeout=0.2, retries=0)
        assert BREAKER_THRESHOLD == 4
        for _ in range(BREAKER_THRESHOLD - 1):
            with pytest.raises(SnmpTimeout):
                mgr.get("host1", [TASSL.hostCpuLoad])
        assert mgr.breaker_state("host1") == "closed"
        with pytest.raises(SnmpTimeout):
            mgr.get("host1", [TASSL.hostCpuLoad])
        assert mgr.breaker_state("host1") == "open"
        sent_before = mgr.requests_sent
        with pytest.raises(SnmpCircuitOpen) as ei:
            mgr.get("host1", [TASSL.hostCpuLoad])
        assert mgr.requests_sent == sent_before  # nothing hit the wire
        assert mgr.fast_failures == 1
        assert ei.value.agent == ("host1", 161)
        assert ei.value.retry_at == pytest.approx(sched.clock.now + BREAKER_COOLDOWN)

    def test_half_open_probe_after_cooldown_then_close_on_success(self):
        sched, net, _, mgr = build(agent_present=False, timeout=0.2, retries=0)
        for _ in range(BREAKER_THRESHOLD):
            with pytest.raises(SnmpTimeout):
                mgr.get("host1", [TASSL.hostCpuLoad])
        assert mgr.breaker_state("host1") == "open"
        # bring the agent up while the breaker cools down
        tree = MibTree()
        tree.register_scalar(TASSL.hostCpuLoad, Gauge32(7))
        SnmpAgent(DatagramSocket(net, "host1"), tree)
        sched.call_at(sched.clock.now + BREAKER_COOLDOWN + 0.5, lambda: None)
        sched.run()
        assert mgr.breaker_state("host1") == "half-open"
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 7
        assert mgr.breaker_state("host1") == "closed"

    def test_failed_probe_doubles_cooldown_capped(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2.0, max_cooldown=5.0)
        breaker.record_failure(now=0.0)          # trips: open until 2.0
        assert breaker.open_until == 2.0
        assert breaker.admit(2.5)                # half-open probe
        breaker.record_failure(now=2.5)          # probe fails: cooldown 4.0
        assert breaker.open_until == 6.5
        assert breaker.admit(7.0)
        breaker.record_failure(now=7.0)          # capped at max_cooldown 5.0
        assert breaker.open_until == 12.0
        assert breaker.opens == 3

    def test_success_resets_cooldown_and_failures(self):
        breaker = CircuitBreaker(threshold=2, cooldown=1.0, max_cooldown=8.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.is_open
        assert breaker.admit(1.5)
        breaker.record_success()
        assert not breaker.is_open
        assert breaker._current_cooldown == 1.0

    def test_breakers_are_per_agent(self):
        sched, net, _, mgr = build(agent_present=True, timeout=0.2, retries=0)
        net.add_node("host2")
        net.add_link("mgr", "host2", latency=0.002, bandwidth=1e6)
        for _ in range(BREAKER_THRESHOLD):
            with pytest.raises(SnmpTimeout):
                mgr.get("host2", [TASSL.hostCpuLoad])  # host2 has no agent
        assert mgr.breaker_state("host2") == "open"
        assert mgr.breaker_state("host1") == "closed"
        assert mgr.get_scalar("host1", TASSL.hostCpuLoad).value == 42
