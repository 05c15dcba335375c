"""BENCHMARK.json, the layer table and the workload registry say the same thing."""

import json
from pathlib import Path

from bench import quiet, run
from bench.layers import COUNTERS, SPAN_NAMES, SPAN_TARGETS, per_layer_specs
from bench.trace import Tracer
from bench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_exactly_the_metrics_the_code_reports():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == per_layer_specs()
    assert len(declared) == 2 * len(SPAN_NAMES) + len(COUNTERS) + 2 <= 128
    assert [m["name"] for m in SPEC["end_to_end"]] == ["setup_s", "ops_per_s", "peak_rss_mib"]
    assert all(0 < m["bound"] <= SPEC["end_to_end"][0]["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]


def test_workload_lists_agree():
    assert list(WORKLOADS) == list(run.CANONICAL_OPS) == run.WORKLOAD_NAMES
    # the regression driver times a subset: long runs of few workloads
    timed = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(timed) and set(timed) <= set(WORKLOADS)
    # every run the driver makes, with its set-ups, fits the contract's cap
    assert (4 + 22 * len(timed)) * (SPEC["run_seconds"] + 10) + quiet.MAX_WAIT_PER_CHECKOUT_S <= 0.95 * 3420
    assert all(ops >= 200 and ops % 20 == 0 for ops in run.CANONICAL_OPS.values())


def test_every_span_target_resolves_and_unpatches():
    tracer = Tracer()
    tracer.install(SPAN_TARGETS)
    try:
        assert set(tracer.names) == set(SPAN_NAMES)
    finally:
        tracer.uninstall()
    assert not tracer._patches
