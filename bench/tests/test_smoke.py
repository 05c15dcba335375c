"""Every workload runs, checks clean and reports every metric at 10 ops."""

import pytest

from bench.harness import execute
from bench.layers import COUNTERS, HOST_TIME_COUNTERS
from bench.workloads import WORKLOADS

NO_VIRTUAL_TIME = {"broker_match_scale"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name):
    result = execute(name, seed=1, ops=10, trace=(name == "wireless_tier_gate"))
    assert result["attempted"] == 10 and result["failed"] == 0, result["failures"]
    assert not result["invariant_errors"]
    e2e = result["end_to_end"]
    assert e2e["ops_per_s"] > 0 and e2e["op_wall_ms_p50"] > 0 and e2e["peak_rss_mib"] > 0
    assert ("virt_latency_ms_p50" in e2e) == (name not in NO_VIRTUAL_TIME)
    assert set(COUNTERS) - set(HOST_TIME_COUNTERS) <= set(result["counters"])
    if result["trace"]:
        assert result["harness"]["trace_coverage"] >= 0.85
        assert result["spans"]["core.bs_evaluate_qos"]["calls"] >= 10


def test_same_seed_same_outcome_and_other_seed_differs():
    a = execute("event_fanout_aged", seed=5, ops=10)
    b = execute("event_fanout_aged", seed=5, ops=10)
    c = execute("event_fanout_aged", seed=6, ops=10)
    assert a["outcome_digest"] == b["outcome_digest"] != c["outcome_digest"]
    assert a["counters"] == b["counters"]


def test_session_renewal_keeps_counters_per_op(monkeypatch):
    from bench.workloads.event_fanout import EventFanoutWide

    monkeypatch.setattr(EventFanoutWide, "session_ops", 7)
    result = execute("event_fanout_wide", seed=2, ops=20)  # 3 warm-up + 20: three renewals
    assert result["failed"] == 0 and not result["invariant_errors"]
    # the new sessions' join traffic is set-up, not ops: still 31 unicasts an op
    assert result["counters"]["network.packets_sent_per_op"] == 31.0
    assert result["counters"]["messaging.fragments_per_message"] == 1.0


def test_image_share_session_renewal_keeps_traces_scenes_and_the_oracle(monkeypatch):
    from bench.workloads.image_share import RECEIVERS, ImageShareAdaptive

    monkeypatch.setattr(ImageShareAdaptive, "session_ops", 5)
    renewed = execute("image_share_adaptive", seed=2, ops=12)  # 3 warm-up + 12: three renewals
    assert renewed["failed"] == 0 and not renewed["invariant_errors"], renewed["failures"]
    budgets = sum(
        v for k, v in renewed["counters"].items() if k.startswith("core.decisions_by_budget.")
    )
    assert budgets == 12 * RECEIVERS
    # a renewed session carries on with the same host traces and scenes
    monkeypatch.undo()
    assert execute("image_share_adaptive", seed=2, ops=12)["outcome_digest"] == renewed["outcome_digest"]


def test_wireless_session_renewal_keeps_the_oracle_and_the_tier_counts(monkeypatch):
    from bench.workloads.wireless import WIRELESS, WirelessTierGate

    monkeypatch.setattr(WirelessTierGate, "session_ops", 7)
    result = execute("wireless_tier_gate", seed=2, ops=20)
    assert result["failed"] == 0 and not result["invariant_errors"], result["failures"]
    tiers = sum(v for k, v in result["counters"].items() if k.startswith("core.tier_histogram."))
    assert tiers == 20 * WIRELESS
