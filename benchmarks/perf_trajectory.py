"""Perf trajectory: broker + analyzer throughput snapshots + regression gate.

Runs fixed, seedless-deterministic workloads and writes the numbers to
``BENCH_broker.json``, ``BENCH_analysis.json`` and
``BENCH_multicast.json`` at the repo root.  The files are committed, so
the repo carries its own performance trajectory; CI re-measures and
fails when the tree got more than ``THRESHOLD``× slower than a committed
snapshot (or when any deterministic work counter — delivery counts,
interpreter runs, shard skips, analyzer findings, multicast packet
counts — changed at all, which means *semantics* drifted, not just
speed).

``BENCH_analysis.json`` covers the PERF hot-path analyzer itself
(whole-tree analysis throughput, which must stay finding-free) plus the
two hot paths the analyzer's own findings sped up: single-message
sharded publish (PERF001: snapshot copy dropped) and profile
construction with string interests (PERF004: LRU-cached selector
parse).  Its ``provenance`` block records the before/after measurements
of those fixes at the commit that landed them.

Usage::

    python benchmarks/perf_trajectory.py            # refresh every snapshot
    python benchmarks/perf_trajectory.py --check    # CI gate vs the snapshots

Timing metrics are throughput rates (higher is better) and the gate is
deliberately loose (2×): CI machines vary, trajectories only need to
catch order-of-magnitude regressions.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: a timing metric may degrade to 1/THRESHOLD of the snapshot before CI fails
THRESHOLD = 2.0

ATTACH_SUBS = 40_000
BATCH_SUBS = 12_000
BATCH_MSGS = 2_000
PLAIN_SUBS = 2_000
PLAIN_MSGS = 200
SINGLE_MSGS = 2_000
PARSE_PROFILES = 50_000
ANALYZER_RUNS = 3

ROLES = ("medic", "scout", "engineer", "observer")

#: the measured effect of the analyzer-driven fixes, at the commit that
#: landed them (same machine, same workloads as collect_analysis below).
#: Recorded for provenance, never re-checked: the rate gate above is what
#: protects the trajectory going forward.
HOTPATH_FIX_PROVENANCE = {
    "sharded_publish_per_s": {
        "rule": "PERF001",
        "fix": "publish_many hands live shard lists to workers instead of "
        "copying O(population) per publish (membership is frozen under "
        "the attach lock for the batch)",
        "before": 2250,
        "after": 2373,
    },
    "profile_parse_per_s": {
        "rule": "PERF004",
        "fix": "core.selectors.parse is LRU-cached by selector text; "
        "ClientProfile.__init__/set_interest go through it",
        "before": 44747,
        "after": 611745,
    },
}


def _profiles(n):
    from repro.core.profiles import ClientProfile

    out = []
    for i in range(n):
        attrs = {"role": ROLES[i % 4], "cell": f"c{i % (n // 10 or 1)}"}
        if i % 3 == 0:
            attrs["tier"] = i % 5
        out.append(ClientProfile(f"s{i}", attrs))
    return out


def _batch(n):
    from repro.messaging.message import SemanticMessage

    return [
        SemanticMessage.create(
            "hq",
            f"cell == 'c{(i * 97) % (BATCH_SUBS // 10)}' and role == '{ROLES[i % 4]}'",
            kind="bench",
        )
        for i in range(n)
    ]


def collect() -> dict:
    """One deterministic workload pass; returns the metric dict."""
    from repro.messaging.broker import SemanticBus
    from repro.messaging.sharded import ShardedSemanticBus

    sink = lambda d: None  # noqa: E731
    metrics: dict[str, float] = {}

    # -- attach throughput on the sharded backend ----------------------
    bus = ShardedSemanticBus(shards=8)
    profiles = _profiles(ATTACH_SUBS)
    t0 = time.perf_counter()
    for p in profiles:
        bus.attach(p, sink)
    metrics["sharded_attach_per_s"] = ATTACH_SUBS / (time.perf_counter() - t0)

    # -- batch publish throughput on the sharded backend ---------------
    bus = ShardedSemanticBus(shards=8)
    for p in _profiles(BATCH_SUBS):
        bus.attach(p, sink)
    batch = _batch(BATCH_MSGS)
    t0 = time.perf_counter()
    out = bus.publish_many(batch)
    metrics["sharded_publish_many_msgs_per_s"] = BATCH_MSGS / (
        time.perf_counter() - t0
    )
    metrics["sharded_delivered"] = out.delivered
    metrics["sharded_checked"] = out.candidates_checked

    # -- single-message publish on the plain indexed bus ---------------
    bus = SemanticBus()
    for p in _profiles(PLAIN_SUBS):
        bus.attach(p, sink)
    msgs = _batch(PLAIN_MSGS)
    t0 = time.perf_counter()
    delivered = sum(bus.publish(m).delivered for m in msgs)
    metrics["bus_publish_per_s"] = PLAIN_MSGS / (time.perf_counter() - t0)
    metrics["bus_delivered"] = delivered
    return metrics


def collect_analysis() -> dict:
    """Analyzer throughput + the hot paths its findings sped up."""
    from repro.analysis import (
        analyze_concurrency,
        analyze_hotpath,
        analyze_wireformat,
        lint_paths,
    )
    from repro.core.profiles import ClientProfile
    from repro.core.selectors import parse
    from repro.messaging.sharded import ShardedSemanticBus

    sink = lambda d: None  # noqa: E731
    metrics: dict[str, float] = {}

    # -- PERF analysis over the repo's own source tree -----------------
    src_tree = str(REPO_ROOT / "src")
    findings = len(analyze_hotpath([src_tree]))  # warm imports + parse caches
    t0 = time.perf_counter()
    for _ in range(ANALYZER_RUNS):
        findings = len(analyze_hotpath([src_tree]))
    metrics["hotpath_analyses_per_s"] = ANALYZER_RUNS / (time.perf_counter() - t0)
    # exact gate: the committed tree must stay free of PERF findings
    metrics["hotpath_findings"] = findings

    # -- DLK/RACE analysis over the same tree --------------------------
    conc_findings = len(analyze_concurrency([src_tree]))  # warm
    t0 = time.perf_counter()
    for _ in range(ANALYZER_RUNS):
        conc_findings = len(analyze_concurrency([src_tree]))
    metrics["concurrency_analyses_per_s"] = ANALYZER_RUNS / (
        time.perf_counter() - t0
    )
    # exact gate: the committed tree must stay free of DLK/RACE findings
    metrics["concurrency_findings"] = conc_findings

    # -- WIRE analysis over the same tree ------------------------------
    wire_findings = len(analyze_wireformat([src_tree]))  # warm
    t0 = time.perf_counter()
    for _ in range(ANALYZER_RUNS):
        wire_findings = len(analyze_wireformat([src_tree]))
    metrics["wire_analyses_per_s"] = ANALYZER_RUNS / (time.perf_counter() - t0)
    # exact gate: the committed tree must stay free of WIRE findings
    metrics["wire_findings"] = wire_findings

    # -- per-file lint over the shipped tree ----------------------------
    lint_paths([src_tree])  # warm
    t0 = time.perf_counter()
    lint_paths([src_tree])
    metrics["repo_lint_per_s"] = 1.0 / (time.perf_counter() - t0)

    # -- single-message publish on the sharded backend (PERF001 fix) ---
    bus = ShardedSemanticBus(shards=8)
    for p in _profiles(BATCH_SUBS):
        bus.attach(p, sink)
    msgs = _batch(SINGLE_MSGS + 100)
    for m in msgs[:100]:  # warmup
        bus.publish(m)
    t0 = time.perf_counter()
    delivered = sum(bus.publish(m).delivered for m in msgs[100:])
    metrics["sharded_publish_per_s"] = SINGLE_MSGS / (time.perf_counter() - t0)
    metrics["sharded_single_delivered"] = delivered

    # -- profile construction with string interests (PERF004 fix) ------
    interests = [f"role == '{r}' and tier >= {t}" for r in ROLES for t in range(5)]
    parse.cache_clear()  # measure from a cold cache, deterministically
    t0 = time.perf_counter()
    for i in range(PARSE_PROFILES):
        ClientProfile(f"p{i}", {"role": "medic"}, interest=interests[i % 20])
    metrics["profile_parse_per_s"] = PARSE_PROFILES / (time.perf_counter() - t0)
    return metrics


def collect_multicast() -> dict:
    """Flat vs. tree multicast packet cost (deterministic counters).

    Every metric is an exact virtual-time packet count from
    ``repro.experiments.multicast_scale``, so the gate catches any
    semantic drift in the routing fabric — a changed tree shape, a lost
    receiver, a fan-out regression.  There is no rate here: the run is
    mostly join/leave rebuilds, and the fabric's two planes have
    host-time numbers in ``bench/`` (``fabric_membership_churn``,
    ``fabric_cast_steady``).  The headline number is the M=256 flat→tree
    reduction on the two-domain topology, which must stay at or above 5×
    (ISSUE 10 acceptance criterion).
    """
    from repro.experiments.multicast_scale import run_multicast_scale

    metrics: dict[str, float] = {}
    result = run_multicast_scale()
    for row in result.rows:
        m = row["members"]
        metrics[f"multicast_flat_tx_per_send_m{m}"] = row["flat_tx_per_send"]
        metrics[f"multicast_tree_tx_per_send_m{m}"] = row["tree_tx_per_send"]
        metrics[f"multicast_delivered_each_m{m}"] = row["delivered_each"]
    last = result.rows[-1]
    # x10 fixed-point so the exact gate compares integers
    metrics["multicast_reduction_m256_x10"] = int(
        last["flat_tx_per_send"] * 10 // last["tree_tx_per_send"]
    )
    metrics["multicast_reduction_m256_at_least_5x"] = int(
        last["flat_tx_per_send"] >= 5 * last["tree_tx_per_send"]
    )
    return metrics


class Snapshot(NamedTuple):
    """One committed trajectory file and how to re-measure and gate it."""

    path: Path
    collect: Callable[[], dict]
    #: compared as throughput rates (2× tolerance)
    rate_metrics: tuple[str, ...]
    #: must match the snapshot exactly (semantic drift gate)
    exact_metrics: tuple[str, ...]
    #: written beside the metrics, never re-checked
    provenance: Optional[dict] = None


#: the whole gate: ``--check`` and the refresh path both iterate this
SNAPSHOTS = (
    Snapshot(
        REPO_ROOT / "BENCH_broker.json",
        collect,
        ("sharded_attach_per_s", "sharded_publish_many_msgs_per_s", "bus_publish_per_s"),
        ("sharded_delivered", "sharded_checked", "bus_delivered"),
    ),
    Snapshot(
        REPO_ROOT / "BENCH_analysis.json",
        collect_analysis,
        (
            "hotpath_analyses_per_s",
            "concurrency_analyses_per_s",
            "wire_analyses_per_s",
            "repo_lint_per_s",
            "sharded_publish_per_s",
            "profile_parse_per_s",
        ),
        (
            "hotpath_findings",
            "concurrency_findings",
            "wire_findings",
            "sharded_single_delivered",
        ),
        HOTPATH_FIX_PROVENANCE,
    ),
    Snapshot(
        REPO_ROOT / "BENCH_multicast.json",
        collect_multicast,
        (),
        (
            "multicast_flat_tx_per_send_m16",
            "multicast_tree_tx_per_send_m16",
            "multicast_delivered_each_m16",
            "multicast_flat_tx_per_send_m64",
            "multicast_tree_tx_per_send_m64",
            "multicast_delivered_each_m64",
            "multicast_flat_tx_per_send_m256",
            "multicast_tree_tx_per_send_m256",
            "multicast_delivered_each_m256",
            "multicast_reduction_m256_x10",
            "multicast_reduction_m256_at_least_5x",
        ),
    ),
)


def check(
    baseline: dict,
    fresh: dict,
    rate_metrics: tuple[str, ...],
    exact_metrics: tuple[str, ...],
) -> list[str]:
    """Compare a fresh run against a snapshot; returns failure strings."""
    failures = []
    base = baseline.get("metrics", {})
    for name in rate_metrics:
        if name not in base:
            continue  # snapshot predates the metric
        old, new = float(base[name]), float(fresh[name])
        if new < old / THRESHOLD:
            failures.append(
                f"{name}: {new:.0f}/s is more than {THRESHOLD}x below "
                f"the committed {old:.0f}/s"
            )
    for name in exact_metrics:
        if name not in base:
            continue
        if int(base[name]) != int(fresh[name]):
            failures.append(
                f"{name}: {int(fresh[name])} != committed {int(base[name])} "
                f"(deterministic workload changed meaning)"
            )
    return failures


def _gate(snapshot: Snapshot, fresh: dict) -> list[str]:
    if not snapshot.path.exists():
        return [f"no snapshot at {snapshot.path}; run without --check to create it"]
    baseline = json.loads(snapshot.path.read_text())
    for name in snapshot.rate_metrics + snapshot.exact_metrics:
        committed = baseline.get("metrics", {}).get(name)
        print(f"{name}: fresh={fresh[name]:.0f} committed={committed}")
    return check(baseline, fresh, snapshot.rate_metrics, snapshot.exact_metrics)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    measured = [(snapshot, snapshot.collect()) for snapshot in SNAPSHOTS]
    if "--check" in argv:
        failures = [f for snapshot, fresh in measured for f in _gate(snapshot, fresh)]
        if failures:
            print("\nperf trajectory REGRESSED:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("\nperf trajectory ok")
        return 0
    for snapshot, fresh in measured:
        doc: dict = {"schema": 1, "metrics": fresh}
        if snapshot.provenance is not None:
            doc["provenance"] = snapshot.provenance
        snapshot.path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {snapshot.path}")
        for name, value in sorted(fresh.items()):
            print(f"  {name}: {value:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
