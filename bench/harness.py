"""Closed-loop driver and the statistics every workload shares.

One driver, one op in flight: issue an operation through the program's
public API, run the scheduler to quiescence, check the output, next.
Host-time numbers come from ``perf_counter`` around the op only (the
output check is harness work and is never inside a timed interval);
virtual-time numbers are read off the program's own delivery timestamps
by the workload's check.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from typing import Any, Optional, Sequence

from .layers import SPAN_TARGETS, TRACED_SHARE, derive_counters
from .trace import Tracer
from .workloads import WORKLOADS

__all__ = [
    "execute",
    "mix_blocks",
    "mix_median_rate",
    "percentile",
    "quiet_op_wall_p50",
    "quiet_rate",
    "supported_tail",
]

#: a timed run never stops before this many ops, whatever the clock says
MIN_TIMED_OPS = 10
#: (tail percentile, fewest samples that leave ten beyond it)
TAIL_CANDIDATES = ((99.9, 10_000), (99.0, 1_000), (95.0, 200), (90.0, 100))
#: a run's op sequence is cut into about this many equal blocks ...
TARGET_BLOCKS = 30
#: ... and a host-time metric is read at this percentile of the blocks, from
#: the fast end: the value of the quietest tenth of the run
QUIET_PCT = 10.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(samples: int) -> Optional[float]:
    """The highest tail percentile with at least ten samples beyond it."""
    for pct, needed in TAIL_CANDIDATES:
        if samples >= needed:
            return pct
    return None


def mix_median_rate(op_walls: Sequence[float], period: int) -> float:
    """Ops per second as ``period`` / the typical wall of one period of the op mix.

    A workload's op mix repeats every ``period`` ops (an image every 11th
    op, a session-wide message every 32nd ...), so the ops at one position
    of the period do the same kind of work.  The typical wall of a
    position is the median over the run of the ops there, and a period
    takes the sum of its positions: heavy ops weigh what they cost, and an
    op that was preempted — a time-sliced neighbour stretches single ops
    for seconds on end, which a median over *blocks* of ops cannot dodge —
    is an outlier of its position and is ignored.  A run shorter than a
    period has one op per position, and the rate is the plain mean.
    """
    positions = min(period, len(op_walls))
    if positions < 1:
        raise ValueError("rate of no ops")
    return positions / sum(statistics.median(op_walls[k::period]) for k in range(positions))


def mix_blocks(op_walls: Sequence[float], period: int) -> list[Sequence[float]]:
    """Cut a run into about ``TARGET_BLOCKS`` equal blocks of whole mix periods.

    Every block then holds the same kinds of op in the same numbers, so
    blocks differ only by what the host did meanwhile.  The ops after the
    last whole block are left out; a run shorter than one period is one
    block.
    """
    periods = len(op_walls) // period
    if periods < 1:
        return [op_walls]
    size = max(1, periods // TARGET_BLOCKS) * period
    return [op_walls[at : at + size] for at in range(0, len(op_walls) - size + 1, size)]


def quiet_rate(op_walls: Sequence[float], period: int) -> float:
    """Ops per second in the quietest tenth of the run.

    A neighbour on the shared host never makes an op faster, only slower,
    and it does so for a minute on end (this box: spells of 15-85 s at
    1.5-2.3x), which no statistic over *all* the ops of a run survives.
    So the run is cut into blocks (:func:`mix_blocks`), each block gets its
    :func:`mix_median_rate`, and the figure is the block at the
    ``QUIET_PCT`` th percentile from the fast end: a spell has to cover
    nine tenths of a run before it shows.
    """
    seconds_per_op = [1.0 / mix_median_rate(block, period) for block in mix_blocks(op_walls, period)]
    return 1.0 / percentile(seconds_per_op, QUIET_PCT)


def quiet_op_wall_p50(op_walls: Sequence[float], period: int) -> float:
    """Median per-op wall, in seconds, in the quietest tenth of the run (see :func:`quiet_rate`)."""
    return percentile(
        [statistics.median(block) for block in mix_blocks(op_walls, period)], QUIET_PCT
    )


def execute(
    name: str,
    seed: int,
    *,
    ops: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = False,
    started: Optional[float] = None,
    setup_only: bool = False,
    trace_path: Optional[str] = None,
) -> dict[str, Any]:
    """Set one workload up, drive it, and return everything measured.

    Exactly one of ``ops`` (fixed count: every counter repeats exactly)
    and ``seconds`` (fixed duration: what the regression driver asks for)
    bounds the timed loop.  ``started`` is the ``perf_counter()`` reading
    ``setup_s`` counts from (default: now); a worker process takes it before
    it imports the program, so ``setup_s`` covers ``import repro`` too.
    """
    if (ops is None) == (seconds is None) and not setup_only:
        raise ValueError("give exactly one of ops / seconds")
    if started is None:
        started = time.perf_counter()
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        tracer.install(SPAN_TARGETS)
    workload = WORKLOADS[name](seed)
    try:
        return _drive(workload, tracer, started, ops, seconds, setup_only, trace_path)
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()


def _drive(
    workload: Any,
    tracer: Optional[Tracer],
    started: float,
    ops: Optional[int],
    seconds: Optional[float],
    setup_only: bool,
    trace_path: Optional[str],
) -> dict[str, Any]:
    failures: list[str] = []
    workload.setup()
    for index in range(workload.warmup_ops):
        workload.prepare(index)
        workload.op(index)
        failures.extend(f"warm-up op {index}: {e}" for e in workload.check(index)[0])
    first = workload.warmup_ops
    setup_s = time.perf_counter() - started
    if setup_only:
        return {"workload": workload.name, "setup_s": setup_s, "failures": failures}

    walls: list[float] = []
    latencies: list[float] = []
    failed = 0
    digest = hashlib.sha256()
    raw_before = workload.totals()
    gen2_before = gc.get_stats()[2]["collections"]
    cpu_before = time.process_time()
    clock = time.perf_counter
    loop_started = clock()
    done = 0
    while True:
        if ops is not None:
            if done >= ops:
                break
        elif done >= MIN_TIMED_OPS and clock() - loop_started >= seconds:
            break
        index = first + done
        workload.prepare(index)
        if tracer is not None:
            tracer.begin_op(done)
        t0 = clock()
        workload.op(index)
        wall = clock() - t0
        if tracer is not None:
            tracer.end_op()
        walls.append(wall)
        errors, latency, outcome = workload.check(index)
        if errors:
            failed += 1
            if len(failures) < 20:
                failures.extend(f"op {done}: {e}" for e in errors)
        if latency is not None:
            latencies.append(latency)
        digest.update(outcome)
        done += 1
    cpu_s = time.process_time() - cpu_before
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    raw_after = workload.totals()
    raw = {key: raw_after[key] - raw_before.get(key, 0.0) for key in raw_after}
    invariant_errors = workload.invariants()

    spans = tracer.aggregate() if tracer is not None else {}
    events = int(spans.get("network.sched_step", {}).get("calls", 0))
    counters = derive_counters(raw, done, events)
    counters.update(workload.gauges())
    if not counters["network.conservation_ok"]:
        invariant_errors.append("network conservation: sent != delivered + dropped + duplicated")
    if counters["messaging.decode_failures"]:
        invariant_errors.append(f"{counters['messaging.decode_failures']:.0f} decode failure(s)")

    op_wall_total = sum(walls)
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": tracer is not None,
        "attempted": done,
        "failed": failed,
        "failures": failures,
        "invariant_errors": invariant_errors,
        "outcome_digest": digest.hexdigest(),
        "end_to_end": {
            "setup_s": setup_s,
            "ops_per_s": quiet_rate(walls, workload.mix_period),
            "op_wall_ms_p50": quiet_op_wall_p50(walls, workload.mix_period) * 1e3,
            "failed_share": failed / done,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "harness": {
            "samples": done,
            "op_wall_ms_mean": op_wall_total / done * 1e3,
            # what a traced run of the leading quarter is compared against
            "op_wall_ms_mean_first_quarter": statistics.fmean(walls[: done // TRACED_SHARE]) * 1e3,
            "op_wall_ms_p95": percentile(walls, 95.0) * 1e3,
            # whether p95 is a supported tail: ten samples beyond it
            "supported_tail_pct": supported_tail(done),
            "cpu_s": cpu_s,
            "gc_gen2_collections": gen2,
        },
        "counters": counters,
        "spans": spans,
    }
    if latencies:
        result["end_to_end"]["virt_latency_ms_p50"] = percentile(latencies, 50.0) * 1e3
        result["end_to_end"]["virt_latency_ms_p99"] = percentile(latencies, 99.0) * 1e3
    if tracer is not None:
        result["harness"]["trace_coverage"] = tracer.covered_seconds() / op_wall_total
        if trace_path is not None:
            tracer.dump(
                trace_path,
                {"workload": workload.name, "seed": workload.seed, "ops": done},
            )
    return result
