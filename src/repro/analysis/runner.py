"""Aggregation and rendering: one entry point over every analyzer pass.

:func:`run_analysis` is what both the CLI (``python -m repro.analysis``)
and the tests drive: it lints the shipped default policy database, runs
every row of :data:`FAMILIES` over the source trees (per-file families
file by file, graph families over one shared call graph), optionally
analyzes ad-hoc selector expressions, and folds everything into a single
:class:`AnalysisReport`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import concurrency, dataflow, hotpath, repo_lint, typestate, wireformat
from .callgraph import build_call_graph_from_sources, read_source, walk_py_files
from .diagnostics import Diagnostic, Severity, filter_diagnostics, max_severity
from .passes import Family, suppressed, suppression_lookup
from .policy_lint import lint_policy_database
from .selector_analysis import selector_diagnostics

__all__ = [
    "FAMILIES",
    "AnalysisReport",
    "run_analysis",
    "analyze_defaults",
    "render_text",
    "render_json",
]

#: Every source-tree rule family, in run order.  ``run_analysis`` and the
#: ``--profile`` labels come from this table; adding a family is adding
#: a row.
FAMILIES: tuple[Family, ...] = (
    Family("repo-lint", "file", ("LNT", "SEL"), repo_lint.lint_findings),
    Family("wire", "file", ("WIRE",), wireformat.wire_findings),
    Family("dataflow", "graph", ("UNI", "EXC"), dataflow.dataflow_findings),
    Family("typestate", "graph", ("TSP",), typestate.typestate_findings),
    Family("perf", "graph", ("PERF",), hotpath.perf_findings),
    Family("concurrency", "graph", ("DLK", "RACE"), concurrency.concurrency_findings),
)


@dataclass(frozen=True)
class AnalysisReport:
    """Every diagnostic one analysis run produced."""

    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.INFO)

    @property
    def worst(self) -> Optional[Severity]:
        return max_severity(self.diagnostics)

    def fails(self, threshold: Optional[Severity]) -> bool:
        """Whether this report should gate (exit non-zero) at ``threshold``."""
        if threshold is None:
            return False
        return any(d.severity >= threshold for d in self.diagnostics)

    def counts(self) -> dict[str, int]:
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
        }


def analyze_defaults(*, ignore: Iterable[str] = ()) -> list[Diagnostic]:
    """Lint the policy database the framework ships with."""
    from ..core.policies import default_policy_database

    diags = lint_policy_database(default_policy_database())
    return filter_diagnostics(diags, ignore=ignore)


def run_analysis(
    paths: Iterable[str] = (),
    *,
    selectors: Iterable[str] = (),
    include_defaults: bool = True,
    ignore: Iterable[str] = (),
    baseline: Optional[dict[str, int]] = None,
    profile: Optional[dict[str, float]] = None,
) -> AnalysisReport:
    """Run every pass and aggregate the findings.

    ``paths`` are files/directories every row of :data:`FAMILIES` runs
    over; ``selectors`` are ad-hoc selector expressions to analyze
    directly.  A ``baseline`` (see :mod:`~repro.analysis.baseline`) drops
    known findings so only new ones remain in the report.  Pass a dict
    as ``profile`` to receive per-rule-family wall times (seconds) in it.
    """
    ignore = tuple(ignore)
    files = walk_py_files(paths)
    diags: list[Diagnostic] = []

    def timed(label: str, produce: Callable[[], list[Diagnostic]]) -> None:
        t0 = time.perf_counter()
        diags.extend(produce())
        if profile is not None:
            profile[label] = profile.get(label, 0.0) + time.perf_counter() - t0

    # each file is read, and its suppressions parsed, at most once per run
    known = frozenset(files)
    sources: dict[str, str] = {}

    def source(path: str) -> str:
        if path not in sources:
            sources[path] = read_source(path)
        return sources[path]

    suppressions = suppression_lookup(lambda path: source(path) if path in known else None)

    # the graph is shared by every graph family: build it once, on first use
    graph_box: list = []

    def shared_graph():
        if not graph_box:
            t0 = time.perf_counter()
            graph_box.append(build_call_graph_from_sources([(p, source(p)) for p in files]))
            if profile is not None:
                profile["callgraph"] = time.perf_counter() - t0
        return graph_box[0]

    def per_file(family: Family) -> list[Diagnostic]:
        return [
            d
            for path in files
            for d in suppressed(family.produce(source(path), path), suppressions, ignore)
        ]

    def per_graph(family: Family) -> list[Diagnostic]:
        return suppressed(family.produce(shared_graph()), suppressions, ignore)

    if include_defaults:
        timed("defaults", lambda: analyze_defaults(ignore=ignore))
    if files:
        for family in FAMILIES:
            run = per_file if family.scope == "file" else per_graph
            timed(family.name, lambda family=family, run=run: run(family))
    for expr in selectors:
        timed(
            "selectors",
            lambda expr=expr: filter_diagnostics(
                selector_diagnostics(expr), ignore=ignore
            ),
        )
    if baseline:
        from .baseline import apply_baseline

        diags = apply_baseline(diags, baseline)
    diags.sort(key=lambda d: (d.file or "", d.line or 0, -int(d.severity), d.code))
    return AnalysisReport(tuple(diags))


def render_text(report: AnalysisReport) -> str:
    lines = [d.format() for d in report.diagnostics]
    c = report.counts()
    lines.append(
        f"analysis: {c['error']} error(s), {c['warning']} warning(s),"
        f" {c['info']} info(s)"
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    payload = {
        "diagnostics": [d.to_dict() for d in report.diagnostics],
        "counts": report.counts(),
        "worst": str(report.worst) if report.worst is not None else None,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
