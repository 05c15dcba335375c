"""Static verification of the source tree, and the codec fuzzer.

The families here are the ones the seeded-fault census
(``tests/fault_census.py``) keeps: each catches faults the tests do not
see, such as a bare ``except:`` on a dispatch path, a gauge in the wrong
unit, population-sized work per packet or a field written without its
lock.  They run in CI (``python -m repro.analysis``).

Every analyzer reports structured
:class:`~repro.analysis.diagnostics.Diagnostic` objects with stable rule
codes.  The source-tree ones are rows of one registry
(:data:`~repro.analysis.runner.FAMILIES`) written against one pass
framework (:mod:`~repro.analysis.passes`):

* :mod:`~repro.analysis.repo_lint` — custom AST rules over the source
  tree (LNT);
* :mod:`~repro.analysis.dataflow` — cross-layer dataflow over the
  project call graph (:mod:`~repro.analysis.callgraph`): physical-unit
  propagation (dB vs linear, bit/s vs byte/s, s/ms/µs) and
  exception-escape summaries for dispatch boundaries (UNI/EXC);
* :mod:`~repro.analysis.hotpath` — per-event work on the hot paths
  (PERF);
* :mod:`~repro.analysis.concurrency` — lock order and shared-state
  races (DLK/RACE).

Decode safety is :mod:`~repro.analysis.wirefuzz`'s: registry-driven
differential fuzzing (round-trip, truncation at every offset, bit
flips) of every shipped codec pair.

CI gates on every warning-or-worse finding
(``python -m repro.analysis --fail-on warning``) and emits SARIF for
code-scanning annotations (:mod:`~repro.analysis.sarif`).  The analyzer
is a static pass only: no runtime module imports it.
"""

from .callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    build_call_graph,
    build_call_graph_from_sources,
)
from .concurrency import (
    LOCK_FACTORIES,
    LockInfo,
    analyze_concurrency,
    collect_locks,
    concurrency_diagnostics,
    find_cycles,
    lock_order_edges,
)
from .dataflow import (
    GAUGE_UNITS,
    SIGNATURES,
    Unit,
    analyze_dataflow,
    compute_escaping_exceptions,
    compute_return_units,
    dataflow_diagnostics,
)
from .diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticWarning,
    Severity,
    filter_diagnostics,
    max_severity,
    parse_suppressions,
)
from .hotpath import (
    HOT_ENTRY_SUFFIXES,
    POPULATION_NAMES,
    PURE_CALLABLES,
    analyze_hotpath,
    hot_contexts,
    perf_diagnostics,
)
from .repo_lint import lint_file, lint_paths, lint_source
from .passes import Family
from .runner import (
    FAMILIES,
    AnalysisReport,
    render_json,
    render_text,
    run_analysis,
)
from .sarif import render_sarif

__all__ = [
    "Diagnostic",
    "DiagnosticWarning",
    "Severity",
    "RULES",
    "filter_diagnostics",
    "max_severity",
    "parse_suppressions",
    "lint_source",
    "lint_file",
    "lint_paths",
    "Family",
    "FAMILIES",
    "AnalysisReport",
    "run_analysis",
    "render_text",
    "render_json",
    "render_sarif",
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "build_call_graph",
    "build_call_graph_from_sources",
    "Unit",
    "SIGNATURES",
    "GAUGE_UNITS",
    "analyze_dataflow",
    "dataflow_diagnostics",
    "compute_return_units",
    "compute_escaping_exceptions",
    "HOT_ENTRY_SUFFIXES",
    "POPULATION_NAMES",
    "PURE_CALLABLES",
    "hot_contexts",
    "analyze_hotpath",
    "perf_diagnostics",
    "LOCK_FACTORIES",
    "LockInfo",
    "collect_locks",
    "lock_order_edges",
    "find_cycles",
    "concurrency_diagnostics",
    "analyze_concurrency",
]
