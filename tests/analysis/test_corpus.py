"""The shipped tree and examples produce zero error-severity diagnostics."""

import os

from repro.analysis import run_analysis

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


def test_shipped_tree_has_zero_error_diagnostics():
    paths = [
        os.path.join(REPO_ROOT, "src", "repro"),
        os.path.join(REPO_ROOT, "examples"),
    ]
    report = run_analysis([p for p in paths if os.path.exists(p)])
    assert report.errors == (), "\n".join(d.format() for d in report.errors)
