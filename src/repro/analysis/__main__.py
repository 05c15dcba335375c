"""``python -m repro.analysis`` — the static verification CLI.

Examples::

    # lint the source tree + the examples
    python -m repro.analysis

    # gate CI: non-zero exit on any warning-or-worse diagnostic
    python -m repro.analysis --fail-on warning

    # machine-readable output
    python -m repro.analysis --format json
    python -m repro.analysis --format sarif > analysis.sarif

    # document rules (all, or specific codes)
    python -m repro.analysis --explain
    python -m repro.analysis --explain UNI001 RACE001
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .diagnostics import RULES, Severity
from .runner import render_json, render_text, run_analysis
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
        description="Static verifier of the source tree: lint, units, exceptions, hot paths, locks.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro and examples when present)",
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

    timings: Optional[dict[str, float]] = {} if args.profile else None
    report = run_analysis(args.paths or _default_paths(), ignore=args.ignore, profile=timings)
    if timings is not None:
        total = sum(timings.values())
        parts = ", ".join(
            f"{family} {seconds:.3f}s" for family, seconds in sorted(timings.items())
        )
        print(f"profile: {parts} (total {total:.3f}s)", file=sys.stderr)

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
