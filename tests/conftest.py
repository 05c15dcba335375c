"""Test-suite wiring for the runtime lock-order sanitizer.

``REPRO_SANITIZE=1 pytest`` turns every :func:`repro._locks.make_lock`
lock in the runtime layers into a tracked lock for the whole session.
At session end the observed acquisition orders are written to a JSON
report (``REPRO_SANITIZE_REPORT``, default ``sanitizer-report.json``),
checked against the static lock graph, and the session FAILS if any
lock-order inversion was observed — the dynamic half of the DLK001
contract (see ``repro.analysis.sanitizer``).

Without the env var that half of this file is inert.  The other half
registers the hypothesis profile CI's deep oracle steps load with
``--hypothesis-profile=deep``.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("deep", max_examples=400, stateful_step_count=60, deadline=None)


def _sanitizing() -> bool:
    return bool(os.environ.get("REPRO_SANITIZE"))


def pytest_configure(config):
    if not _sanitizing():
        return
    from repro.analysis import sanitizer

    config._repro_sanitizer = sanitizer.enable()


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    san = getattr(config, "_repro_sanitizer", None)
    if san is None:
        return
    report_path = os.environ.get("REPRO_SANITIZE_REPORT", "sanitizer-report.json")
    san.write_report(report_path)
    problems = [
        f"lock-order inversion observed at run time: {a} <-> {b}"
        for a, b in san.inversions()
    ]
    try:
        from repro.analysis import build_call_graph, lock_order_edges

        static = lock_order_edges(build_call_graph(["src/repro"]))
        problems.extend(san.check_against(static))
    except Exception as exc:  # pragma: no cover - static pass is best-effort here
        print(f"sanitizer: static cross-check skipped ({exc})")
    tr = config.pluginmanager.get_plugin("terminalreporter")
    if problems:
        for p in problems:
            if tr is not None:
                tr.write_line(f"SANITIZER: {p}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
    elif tr is not None:
        tr.write_line(
            f"sanitizer: no lock-order inversions"
            f" ({len(san.edges())} edge(s), report: {report_path})"
        )
