"""Static verification of semantic configs: selectors and policies.

The paper's delivery and adaptation decisions hinge on propositional
semantic selectors and a policy database — a misconfigured selector or a
contradictory policy silently drops traffic at run time.  This package
catches those bugs *statically*: on demand (:func:`selector_diagnostics`,
:func:`lint_policy_database`) and in CI
(``python -m repro.analysis``).

Every analyzer reports structured
:class:`~repro.analysis.diagnostics.Diagnostic` objects with stable rule
codes.  The source-tree ones are rows of one registry
(:data:`~repro.analysis.runner.FAMILIES`) written against one pass
framework (:mod:`~repro.analysis.passes`):

* :mod:`~repro.analysis.selector_analysis` — satisfiability, vacuity,
  and type conflicts over the selector AST (DNF expansion into an
  interval/set abstract domain);
* :mod:`~repro.analysis.policy_lint` — step-policy monotonicity and
  reachability, SIR tier collapse, packet-step conformance;
* :mod:`~repro.analysis.repo_lint` — custom AST rules over the source
  tree plus extraction and analysis of selector string literals;
* :mod:`~repro.analysis.dataflow` — cross-layer dataflow over the
  project call graph (:mod:`~repro.analysis.callgraph`): physical-unit
  propagation (dB vs linear, bit/s vs byte/s, s/ms/µs) and
  exception-escape summaries for dispatch boundaries;
* :mod:`~repro.analysis.wireformat` — decode safety (WIRE002) of every
  encoder/decoder pair discovered by naming convention; symmetry is
  :mod:`~repro.analysis.wirefuzz`'s: registry-driven differential
  fuzzing (round-trip, truncation, bit-flip) cross-checked against the
  static findings;
* :mod:`~repro.analysis.hotpath` — per-event work on the hot paths
  (PERF);
* :mod:`~repro.analysis.concurrency` — lock order and shared-state
  races (DLK/RACE).

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
from .policy_lint import (
    PACKET_STEPS,
    lint_policy_database,
    lint_sir_policy,
    lint_step_policy,
)
from .hotpath import (
    HOT_ENTRY_SUFFIXES,
    POPULATION_NAMES,
    PURE_CALLABLES,
    analyze_hotpath,
    hot_contexts,
    perf_diagnostics,
)
from .repo_lint import extract_selector_literals, lint_file, lint_paths, lint_source
from .passes import Family
from .runner import (
    FAMILIES,
    AnalysisReport,
    analyze_defaults,
    render_json,
    render_text,
    run_analysis,
)
from .sarif import render_sarif
from .selector_analysis import (
    SelectorReport,
    Verdict,
    analyze_selector,
    selector_diagnostics,
)
from .wireformat import (
    PAIR_METHOD_NAMES,
    CodecPair,
    analyze_wireformat,
    wire_file,
    wire_paths,
    wire_source,
)

__all__ = [
    "Diagnostic",
    "DiagnosticWarning",
    "Severity",
    "RULES",
    "filter_diagnostics",
    "max_severity",
    "parse_suppressions",
    "Verdict",
    "SelectorReport",
    "analyze_selector",
    "selector_diagnostics",
    "PACKET_STEPS",
    "lint_step_policy",
    "lint_sir_policy",
    "lint_policy_database",
    "lint_source",
    "lint_file",
    "lint_paths",
    "extract_selector_literals",
    "Family",
    "FAMILIES",
    "AnalysisReport",
    "run_analysis",
    "analyze_defaults",
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
    "PAIR_METHOD_NAMES",
    "CodecPair",
    "analyze_wireformat",
    "wire_source",
    "wire_file",
    "wire_paths",
]
