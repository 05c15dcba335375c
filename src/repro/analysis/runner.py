"""Aggregation and rendering: one entry point over every analyzer pass.

:func:`run_analysis` is what both the CLI (``python -m repro.analysis``)
and the tests drive: it lints the shipped default policy database, walks
source trees applying the repo-lint rules, the selector extraction, and
the cross-layer dataflow passes (units, exception flow, resource
lifecycle), optionally analyzes ad-hoc selector expressions, and folds
everything into a single :class:`AnalysisReport`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .cache import AnalysisCache
from .concurrency import concurrency_diagnostics
from .dataflow import dataflow_diagnostics
from .diagnostics import Diagnostic, Severity, filter_diagnostics, max_severity
from .hotpath import det_diagnostics, perf_diagnostics
from .policy_lint import lint_policy_database
from .repo_lint import _walk_py_files, lint_file, lint_paths
from .selector_analysis import selector_diagnostics
from .typestate import typestate_diagnostics
from .wireformat import wire_file, wire_paths

__all__ = ["AnalysisReport", "run_analysis", "analyze_defaults", "render_text", "render_json"]


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
    include_dataflow: bool = True,
    include_typestate: bool = True,
    include_perf: bool = True,
    include_det: bool = True,
    include_concurrency: bool = True,
    include_wire: bool = True,
    ignore: Iterable[str] = (),
    baseline: Optional[dict[str, int]] = None,
    profile: Optional[dict[str, float]] = None,
    cache: Optional[AnalysisCache] = None,
) -> AnalysisReport:
    """Run every requested pass and aggregate the findings.

    ``paths`` are files/directories for the repo-lint + extraction pass
    and the graph passes; ``selectors`` are ad-hoc selector expressions
    to analyze directly.  A ``baseline`` (see
    :mod:`~repro.analysis.baseline`) drops known findings so only new
    ones remain in the report.  Pass a dict as ``profile`` to receive
    per-rule-family wall times (seconds) in it.  An
    :class:`~repro.analysis.cache.AnalysisCache` skips unchanged files
    (per-file passes) and unchanged trees (graph passes); cached output
    is identical to a cold run's because entries are keyed by content
    digest and salted by the rule registry and ``ignore`` set.  The
    caller persists it with ``cache.save()``.
    """
    ignore = tuple(ignore)
    paths = tuple(paths)
    diags: list[Diagnostic] = []

    def timed(family: str, produce: Callable[[], list[Diagnostic]]) -> None:
        t0 = time.perf_counter()
        diags.extend(produce())
        if profile is not None:
            profile[family] = profile.get(family, 0.0) + time.perf_counter() - t0

    def per_file_pass(
        family: str,
        files: list[str],
        whole: Callable[[], list[Diagnostic]],
        one: Callable[[str], list[Diagnostic]],
    ) -> list[Diagnostic]:
        if cache is None:
            return whole()
        out: list[Diagnostic] = []
        for path in files:
            digest = cache.digest(path)
            got = cache.get(family, path, digest)
            if got is None:
                got = one(path)
                cache.put(family, path, digest, got)
            out.extend(got)
        return out

    def graph_pass(
        family: str,
        tree_key: Optional[str],
        produce: Callable[[], list[Diagnostic]],
    ) -> list[Diagnostic]:
        if cache is None or tree_key is None:
            return produce()
        key = f"{family}:{tree_key}"
        got = cache.get_graph(key)
        if got is None:
            got = produce()
            cache.put_graph(key, got)
        return got

    if include_defaults:
        timed("defaults", lambda: analyze_defaults(ignore=ignore))
    if paths:
        files = _walk_py_files(paths) if cache is not None else []
        timed(
            "repo-lint",
            lambda: per_file_pass(
                "repo-lint",
                files,
                lambda: lint_paths(paths, ignore=ignore),
                lambda p: lint_file(p, ignore=ignore),
            ),
        )
        if include_wire:
            timed(
                "wire",
                lambda: per_file_pass(
                    "wire",
                    files,
                    lambda: wire_paths(paths, ignore=ignore),
                    lambda p: wire_file(p, ignore=ignore),
                ),
            )
        if (
            include_dataflow
            or include_typestate
            or include_perf
            or include_det
            or include_concurrency
        ):
            tree_key = cache.tree_key(files) if cache is not None else None
            # the graph is shared by every graph family but expensive to
            # build; defer it so a fully warm cache never constructs it
            graph_box: list = []

            def shared_graph():
                if not graph_box:
                    from .callgraph import build_call_graph

                    t0 = time.perf_counter()
                    graph_box.append(build_call_graph(paths))
                    if profile is not None:
                        profile["callgraph"] = time.perf_counter() - t0
                return graph_box[0]

            producers: dict[str, Callable[[], list[Diagnostic]]] = {
                "dataflow": lambda: dataflow_diagnostics(shared_graph(), ignore=ignore),
                "typestate": lambda: typestate_diagnostics(shared_graph(), ignore=ignore),
                "perf": lambda: perf_diagnostics(shared_graph(), ignore=ignore),
                "det": lambda: det_diagnostics(shared_graph(), ignore=ignore),
                "concurrency": lambda: concurrency_diagnostics(shared_graph(), ignore=ignore),
            }
            for name, flag in (
                ("dataflow", include_dataflow),
                ("typestate", include_typestate),
                ("perf", include_perf),
                ("det", include_det),
                ("concurrency", include_concurrency),
            ):
                if flag:
                    timed(
                        name,
                        lambda name=name: graph_pass(name, tree_key, producers[name]),
                    )
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
