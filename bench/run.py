"""The benchmark's one command.

Researcher's view — every workload, every metric, checked::

    python bench/run.py --all --seed 0            # end-to-end metrics
    python bench/run.py --all --seed 0 --trace    # ... plus the per-layer run
    python bench/run.py --selfcheck               # two sets of runs must agree

Regression driver's view (the contract ``BENCHMARK.json`` declares)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

which prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every measurement runs in a fresh subprocess of this same file
(``--worker``), so no workload inherits another's heap, caches or
patched classes, and ``setup_s`` includes ``import repro``.  ``setup_s``
is the median of seven such set-ups.  ``--all`` runs all eight workloads;
``BENCHMARK.json`` names the ones the regression driver times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
if not __package__:
    # Run as a script: import as the package ``bench`` from the tree this
    # file sits in.  With the script's own directory first on the path,
    # ``bench/trace.py`` would shadow the standard library's ``trace``.
    sys.path[0] = str(BENCH_DIR.parent)

from bench import quiet  # noqa: E402
from bench.layers import (  # noqa: E402
    HOST_TIME_COUNTERS,
    SPAN_NAMES,
    TRACED_SHARE,
    VIRT_METRICS,
    per_layer_specs,
)

OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected" / "seed0.json"
QUIET_STATE_PATH = OUT_DIR / "quiet.json"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {name: unit for name, unit, _better in per_layer_specs()}

#: op counts of ``--all``: fixed, so every deterministic counter repeats
#: exactly (~7-10 s each on 2 cores; at least 200 so p95 is supported)
CANONICAL_OPS = {
    "image_share_adaptive": 200,
    "event_fanout_wide": 8000,
    "event_fanout_aged": 3000,
    "wireless_tier_gate": 400,
    "fabric_membership_churn": 3000,
    "fabric_cast_steady": 8000,
    "broker_match_scale": 500,
    "adaptation_poll": 3000,
}
WORKLOAD_NAMES = list(CANONICAL_OPS)
#: set-up-only subprocesses before and again after the measuring one
SETUPS_EACH_SIDE = 3
#: share of a ``--trace 1`` driver run's ``--seconds`` spent on the untraced
#: pass; the traced pass then repeats exactly those ops (1.1-1.5x slower),
#: so the two compare like for like and together fill the run
UNTRACED_SHARE_OF_TRACED_RUN = 0.4
MIN_TRACE_COVERAGE = 0.85
WORKER_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A worker died or printed no result."""


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------
def spawn(
    name: str,
    seed: int,
    *,
    ops: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = False,
    setup_only: bool = False,
) -> dict[str, Any]:
    """Run one worker subprocess to completion; return what it measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", name, "--seed", str(seed)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if trace:
        cmd += ["--trace", "1"]
    if setup_only:
        cmd.append("--setup-only")
    # one hash seed for every worker: set and dict orders, and with them the
    # work done, are then the same in every run of a workload
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=False, env=env
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker for {name!r} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def worker_main(args: argparse.Namespace) -> int:
    # The set-up clock starts with the interpreter and the third-party
    # libraries the program uses already loaded: their import is two thirds
    # of a bare ``import repro``, is all file-system work, and drifted by
    # 15-20 % between sets of runs of one commit while the program's own
    # set-up held within 5 %.  A library a later change adds is not loaded
    # here, so its import time counts.
    import numpy  # noqa: F401
    import scipy.ndimage  # noqa: F401

    started = time.perf_counter()
    import repro

    from bench.harness import execute

    source = BENCH_DIR.parent / "src"
    if not Path(repro.__file__).resolve().is_relative_to(source):
        raise BenchmarkError(f"repro was imported from {repro.__file__}, not from {source}")
    trace_path = None
    if args.trace and not args.setup_only:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = str(OUT_DIR / f"trace-{args.worker}.json")
    result = execute(
        args.worker,
        args.seed,
        ops=args.ops,
        seconds=args.seconds,
        trace=bool(args.trace),
        started=started,
        setup_only=args.setup_only,
        trace_path=trace_path,
    )
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# measuring one workload
# ----------------------------------------------------------------------
def measure_untraced(
    name: str,
    seed: int,
    *,
    ops: Optional[int] = None,
    seconds: Optional[float] = None,
    wait_for_quiet: bool = False,
) -> dict[str, Any]:
    """The end-to-end run, with ``setup_s`` the median of seven set-ups.

    Three set-up-only subprocesses run before the measuring one and three after
    it, so a few seconds of interference cannot slow most of the samples.
    With ``wait_for_quiet`` the measuring one starts only once the host is
    no slower than it has been seen to be (:mod:`bench.quiet`).
    """
    setups = [spawn(name, seed, setup_only=True)["setup_s"] for _ in range(SETUPS_EACH_SIDE)]
    waited = quiet.wait_for_quiet(QUIET_STATE_PATH) if wait_for_quiet else None
    result = spawn(name, seed, ops=ops, seconds=seconds)
    setups.append(result["end_to_end"]["setup_s"])
    setups += [spawn(name, seed, setup_only=True)["setup_s"] for _ in range(SETUPS_EACH_SIDE)]
    result["waited_for_quiet"] = waited
    result["setup_s_samples"] = setups
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def measure_traced(
    name: str,
    seed: int,
    untraced: dict[str, Any],
    *,
    ops: Optional[int] = None,
    seconds: Optional[float] = None,
) -> dict[str, Any]:
    """The per-layer run; overhead and host-time-per-event need ``untraced``."""
    result = spawn(name, seed, ops=ops, seconds=seconds, trace=True)
    base = untraced["harness"]
    traced = result["harness"]
    counters = result["counters"]
    # like for like: the untraced per-op wall over the same leading ops
    if result["attempted"] == untraced["attempted"]:
        base_mean = base["op_wall_ms_mean"]
    elif result["attempted"] == untraced["attempted"] // TRACED_SHARE:
        base_mean = base["op_wall_ms_mean_first_quarter"]
    else:
        raise BenchmarkError("traced run is neither the untraced run's ops nor their first quarter")
    counters["harness.trace_overhead_ratio"] = traced["op_wall_ms_mean"] / base_mean
    counters["harness.trace_coverage"] = traced["trace_coverage"]
    # host numbers come from the untraced run: tracing inflates them
    counters["harness.op_wall_ms_p50"] = untraced["end_to_end"]["op_wall_ms_p50"]
    counters["harness.op_wall_ms_p95"] = base["op_wall_ms_p95"]
    counters["harness.cpu_s"] = base["cpu_s"]
    counters["harness.gc_gen2_collections"] = base["gc_gen2_collections"]
    events_per_op = counters["network.events_per_op"]
    counters["network.host_us_per_event"] = (
        base["op_wall_ms_mean"] * 1e3 / events_per_op if events_per_op else 0.0
    )
    return result


def per_layer_metrics(traced: dict[str, Any]) -> dict[str, float]:
    """Every declared per-layer metric; a layer the workload bypasses reads 0."""
    values: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for span, record in traced["spans"].items():
        values[f"{span}.calls"] = record["calls"]
        values[f"{span}.self_ms"] = record["self_ms"]
    values.update(traced["counters"])
    for name in VIRT_METRICS:
        values[name] = traced["end_to_end"].get(name, 0.0)
    return values


def problems_of(result: dict[str, Any]) -> list[str]:
    """Everything that makes a run's outputs wrong."""
    found = list(result["failures"]) + list(result["invariant_errors"])
    if result["failed"] and not result["failures"]:
        found.append(f"{result['failed']} op(s) failed their output check")
    if result["trace"] and result["harness"]["trace_coverage"] < MIN_TRACE_COVERAGE:
        found.append(
            f"trace coverage {result['harness']['trace_coverage']:.3f} < {MIN_TRACE_COVERAGE}:"
            " a layer is missing a span"
        )
    return found


# ----------------------------------------------------------------------
# the regression driver's contract
# ----------------------------------------------------------------------
def driver_main(args: argparse.Namespace) -> int:
    name, seed, seconds = args.workload, args.seed, float(args.seconds)
    if args.trace:
        untraced = spawn(name, seed, seconds=seconds * UNTRACED_SHARE_OF_TRACED_RUN)
        traced = measure_traced(name, seed, untraced, ops=untraced["attempted"])
        runs = [untraced, traced]
        metrics = {
            metric: {"value": value, "unit": PER_LAYER_UNITS[metric]}
            for metric, value in per_layer_metrics(traced).items()
        }
    else:
        untraced = measure_untraced(name, seed, seconds=seconds, wait_for_quiet=True)
        if untraced["waited_for_quiet"]["waited_s"]:
            print(f"{name}: waited for a quiet host: {untraced['waited_for_quiet']}", file=sys.stderr)
        runs = [untraced]
        metrics = {
            metric: {"value": untraced["end_to_end"][metric], "unit": spec["unit"]}
            for metric, spec in END_TO_END.items()
        }
    problems = [p for run in runs for p in problems_of(run)]
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


# ----------------------------------------------------------------------
# --all: the researcher's report
# ----------------------------------------------------------------------
REPORT_END_TO_END = (
    ("setup_s", "s", "host"),
    ("ops_per_s", "1/s", "host"),
    ("op_wall_ms_p50", "ms", "host"),
    ("virt_latency_ms_p50", "ms", "virtual"),
    ("virt_latency_ms_p99", "ms", "virtual"),
    ("failed_share", "ratio", "-"),
    ("peak_rss_mib", "MiB", "host"),
)


def exact_view(untraced: dict[str, Any], traced: Optional[dict[str, Any]]) -> dict[str, Any]:
    """What must repeat exactly for a seed and op count (expected/seed0.json)."""
    view: dict[str, Any] = {
        "ops": untraced["attempted"],
        "outcome_digest": untraced["outcome_digest"],
        **{m: untraced["end_to_end"][m] for m in VIRT_METRICS if m in untraced["end_to_end"]},
    }
    if traced is not None:
        view["traced"] = {
            "ops": traced["attempted"],
            "outcome_digest": traced["outcome_digest"],
            "calls": {span: rec["calls"] for span, rec in sorted(traced["spans"].items())},
            "counters": {
                name: value
                for name, value in sorted(traced["counters"].items())
                if name not in HOST_TIME_COUNTERS
            },
        }
    return view


def diff_exact(expected: dict[str, Any], got: dict[str, Any], where: str = "") -> list[str]:
    """Paths at which two exact views differ.

    A ``traced`` section absent from ``got`` is not a difference: that is
    an ``--all`` run without ``--trace``.
    """
    out: list[str] = []
    for key, want in expected.items():
        path = f"{where}{key}"
        if key not in got:
            if key != "traced":
                out.append(f"{path}: missing (expected {want!r})")
        elif isinstance(want, dict):
            out.extend(diff_exact(want, got[key], path + "."))
        elif got[key] != want:
            out.append(f"{path}: {got[key]!r} != expected {want!r}")
    for key in got.keys() - expected.keys():
        out.append(f"{where}{key}: unexpected (not in the expected file)")
    return out


def print_report(name: str, untraced: dict[str, Any], traced: Optional[dict[str, Any]]) -> None:
    h = untraced["harness"]
    print(f"\n== {name}  seed {untraced['seed']}  {untraced['attempted']} ops ==")
    for metric, unit, clock in REPORT_END_TO_END:
        if metric not in untraced["end_to_end"]:
            print(f"  {metric:<24} {'n/a':>14}        (no virtual time in this workload)")
            continue
        value = untraced["end_to_end"][metric]
        note = ""
        if metric == "op_wall_ms_p50":
            note = f"  ({h['samples']} samples)"
        elif metric == "setup_s":
            note = f"  (median of {len(untraced['setup_s_samples'])})"
        print(f"  {metric:<24} {value:>14.4f} {unit:<6} {clock:<7}{note}")
    supported = h["supported_tail_pct"] is not None and h["supported_tail_pct"] >= 95.0
    print(
        f"  {'harness.op_wall_ms_p95':<24} {h['op_wall_ms_p95']:>14.4f} ms     host   "
        f"  (not gated; {'supported' if supported else 'fewer than 10 samples beyond it'})"
    )
    print(f"  outcome_digest           {untraced['outcome_digest']}")
    if traced is None:
        return
    print(f"  -- per layer (traced run, {traced['attempted']} ops) --")
    spans = traced["spans"]
    total_self = sum(rec["self_ms"] for rec in spans.values()) or 1.0
    for span, rec in sorted(spans.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(
            f"  {span + '.calls':<40} {rec['calls']:>12d} count"
            f"   {span + '.self_ms':<40} {rec['self_ms']:>12.3f} ms  {rec['self_ms'] / total_self:6.1%}"
        )
    idle = [span for span in SPAN_NAMES if span not in spans]
    print(f"  spans with 0 calls: {', '.join(idle)}")
    for counter, value in traced["counters"].items():
        print(f"  {counter:<44} {value:>14.4f} {PER_LAYER_UNITS[counter]}")


def run_all(seed: int, trace: bool) -> tuple[dict[str, Any], list[str]]:
    """Every workload at its canonical op count; returns (results, problems)."""
    results: dict[str, Any] = {}
    problems: list[str] = []
    for name in WORKLOAD_NAMES:
        ops = CANONICAL_OPS[name]
        untraced = measure_untraced(name, seed, ops=ops)
        traced = None
        if trace:
            traced = measure_traced(name, seed, untraced, ops=ops // TRACED_SHARE)
        print_report(name, untraced, traced)
        results[name] = {"untraced": untraced, "traced": traced}
        for run in filter(None, (untraced, traced)):
            problems.extend(f"{name}: {p}" for p in problems_of(run))
    return results, problems


def check_expected(results: dict[str, Any]) -> list[str]:
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    problems = []
    for name, runs in results.items():
        got = exact_view(runs["untraced"], runs["traced"])
        problems.extend(
            f"{name}: expected/seed0.json mismatch at {d}" for d in diff_exact(expected[name], got)
        )
    return problems


def all_main(args: argparse.Namespace) -> int:
    results, problems = run_all(args.seed, args.trace)
    if args.write_expected:
        if not args.trace or args.seed != 0:
            raise SystemExit("--write-expected needs --trace and --seed 0")
        EXPECTED_PATH.parent.mkdir(exist_ok=True)
        view = {n: exact_view(r["untraced"], r["traced"]) for n, r in results.items()}
        EXPECTED_PATH.write_text(json.dumps(view, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"\nwrote {EXPECTED_PATH}")
    elif args.seed == 0:
        problems.extend(check_expected(results))
    else:
        print(f"\nseed {args.seed}: invariants checked; exact values are pinned for seed 0 only")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print()
    for problem in problems:
        print(f"FAILED  {problem}")
    print("all checks passed" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


# ----------------------------------------------------------------------
# --selfcheck: two sets of runs of one commit must agree
# ----------------------------------------------------------------------
def selfcheck_main(args: argparse.Namespace) -> int:
    problems: list[str] = []
    sides = []
    for side in ("A", "B"):
        print(f"\n######## selfcheck run {side} ########")
        results, found = run_all(args.seed, trace=True)
        problems.extend(f"run {side}: {p}" for p in found)
        sides.append(results)
    print("\n######## selfcheck: A vs B ########")
    for name in WORKLOAD_NAMES:
        a, b = (side[name] for side in sides)
        for d in diff_exact(exact_view(a["untraced"], a["traced"]),
                            exact_view(b["untraced"], b["traced"])):
            problems.append(f"{name}: exact metric differs between runs at {d}")
        for metric, spec in END_TO_END.items():
            va, vb = (side["untraced"]["end_to_end"][metric] for side in (a, b))
            spread = abs(va - vb) / min(va, vb)
            verdict = "ok" if spread <= spec["bound"] else "OUT OF BOUND"
            print(
                f"  {name:<26} {metric:<16} A {va:>12.4f}  B {vb:>12.4f} {spec['unit']:<4}"
                f" spread {spread:6.2%}  bound {spec['bound']:.0%}  {verdict}"
            )
            if spread > spec["bound"]:
                problems.append(f"{name}: {metric} differs by {spread:.1%} > {spec['bound']:.0%}")
    print()
    for problem in problems:
        print(f"FAILED  {problem}")
    print("selfcheck passed" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true", help="run every workload and check it")
    mode.add_argument("--selfcheck", action="store_true", help="run everything twice; must agree")
    mode.add_argument("--workload", choices=WORKLOAD_NAMES, help="one timed run (driver contract)")
    mode.add_argument("--worker", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="with --workload: how long to measure")
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
        help="also (--all) or instead (--workload) run with the per-layer wrappers installed",
    )
    parser.add_argument("--json", metavar="PATH", help="with --all: also write the results here")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="with --all --trace --seed 0: rewrite bench/expected/seed0.json",
    )
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload and args.seconds is None:
        parser.error("--workload needs --seconds")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (BENCH_DIR.parent / "src" / "repro").is_dir():
        print("benchmark did not complete: no src/repro beside bench/", file=sys.stderr)
        return 2
    try:
        if args.worker:
            return worker_main(args)
        if args.workload:
            return driver_main(args)
        if args.selfcheck:
            return selfcheck_main(args)
        return all_main(args)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
