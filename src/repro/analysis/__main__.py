"""``python -m repro.analysis`` — the static verification CLI.

Examples::

    # lint the shipped defaults + the source tree + the examples
    python -m repro.analysis

    # gate CI: non-zero exit on any new warning-or-worse diagnostic
    python -m repro.analysis --baseline analysis-baseline.json --fail-on warning

    # accept the current findings as the baseline
    python -m repro.analysis --write-baseline analysis-baseline.json

    # analyze one selector expression
    python -m repro.analysis --selector "role == 'medic' and role == 'clerk'"

    # machine-readable output
    python -m repro.analysis --format json
    python -m repro.analysis --format sarif > analysis.sarif

    # document rules (all, or specific codes)
    python -m repro.analysis --explain
    python -m repro.analysis --explain TSP003 RACE001
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .baseline import apply_baseline, dump_baseline, load_baseline, stale_entries
from .diagnostics import RULES, Severity
from .runner import AnalysisReport, render_json, render_text, run_analysis
from .sarif import render_sarif

DEFAULT_PATHS = ("src/repro", "examples")


def _default_paths() -> list[str]:
    return [p for p in DEFAULT_PATHS if os.path.exists(p)]


def _explain(codes: Sequence[str]) -> int:
    """Print the rule registry (all rules, or just ``codes``)."""
    wanted = [c.strip().upper() for c in codes]
    unknown = [c for c in wanted if c not in RULES]
    if unknown:
        print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for code in wanted or sorted(RULES):
        severity, description = RULES[code]
        print(f"{code}  {severity}  {description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static verifier for selectors, policies, contracts, and dataflow.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro and examples when present)",
    )
    parser.add_argument(
        "--selector",
        action="append",
        default=[],
        metavar="EXPR",
        help="analyze one selector expression (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CODE",
        help="suppress a rule code everywhere (repeatable)",
    )
    parser.add_argument(
        "--fail-on",
        choices=["error", "warning", "info", "never"],
        default="error",
        help="lowest severity that makes the exit status non-zero (default: error)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="drop findings recorded in FILE; only new findings remain",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings to FILE and exit 0",
    )
    parser.add_argument(
        "--no-defaults",
        action="store_true",
        help="skip linting the shipped default policy database",
    )
    parser.add_argument(
        "--sanitize",
        metavar="REPORT",
        help="cross-check a runtime sanitizer JSON report (REPRO_SANITIZE=1"
        " test run) against the static lock graph",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-rule-family wall time to stderr after the run",
    )
    parser.add_argument(
        "--explain",
        nargs="*",
        metavar="CODE",
        help="print rule documentation (all rules, or just the named codes) and exit",
    )
    args = parser.parse_args(argv)

    if args.explain is not None:
        return _explain(args.explain)

    baseline = None
    if args.baseline and not args.write_baseline:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"baseline {args.baseline} not found; treating as empty", file=sys.stderr)
            baseline = {}

    paths = args.paths or ([] if args.selector else _default_paths())
    timings: Optional[dict[str, float]] = {} if args.profile else None
    report = run_analysis(
        paths,
        selectors=args.selector,
        include_defaults=not args.no_defaults,
        ignore=args.ignore,
        profile=timings,
    )
    if args.sanitize:
        import json

        from .callgraph import build_call_graph
        from .concurrency import check_sanitizer_report

        with open(args.sanitize, encoding="utf-8") as fh:
            sanitizer_report = json.load(fh)
        extra = check_sanitizer_report(
            build_call_graph(paths), sanitizer_report, ignore=args.ignore
        )
        report = AnalysisReport(tuple(list(report.diagnostics) + extra))
    if timings is not None:
        total = sum(timings.values())
        parts = ", ".join(
            f"{family} {seconds:.3f}s" for family, seconds in sorted(timings.items())
        )
        print(f"profile: {parts} (total {total:.3f}s)", file=sys.stderr)

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            fh.write(dump_baseline(list(report.diagnostics)))
        print(
            f"wrote {len(report.diagnostics)} finding(s) to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    if baseline is not None:
        stale = stale_entries(list(report.diagnostics), baseline)
        report = AnalysisReport(
            tuple(apply_baseline(list(report.diagnostics), baseline))
        )
        if stale:
            print(
                f"note: {sum(stale.values())} baseline entr(ies) no longer match"
                " any finding; consider re-writing the baseline",
                file=sys.stderr,
            )

    if args.format == "sarif":
        print(render_sarif(list(report.diagnostics)), end="")
    elif args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))

    threshold = None if args.fail_on == "never" else Severity.parse(args.fail_on)
    return 1 if report.fails(threshold) else 0


if __name__ == "__main__":
    sys.exit(main())
