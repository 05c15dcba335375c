"""Baseline multiset semantics, SARIF rendering, and the CLI plumbing."""

import json

from repro.analysis import (
    Severity,
    apply_baseline,
    dump_baseline,
    fingerprint,
    load_baseline,
    render_sarif,
)
from repro.analysis.baseline import stale_entries
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.__main__ import main


def diag(code="EXC003", file="src/a.py", line=10, msg="silent swallow", sev=Severity.WARNING):
    return Diagnostic(code, sev, msg, subject="f", file=file, line=line, column=3)


class TestFingerprint:
    def test_excludes_line_and_column(self):
        assert fingerprint(diag(line=10)) == fingerprint(diag(line=99))

    def test_distinguishes_file_and_message(self):
        assert fingerprint(diag(file="src/a.py")) != fingerprint(diag(file="src/b.py"))
        assert fingerprint(diag(msg="x")) != fingerprint(diag(msg="y"))

    def test_normalizes_path_separators(self):
        assert fingerprint(diag(file="src\\a.py")) == fingerprint(diag(file="src/a.py"))


class TestBaselineRoundTrip:
    def test_dump_then_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(dump_baseline([diag(), diag(), diag(code="UNI003")]))
        loaded = load_baseline(str(path))
        assert loaded[fingerprint(diag())] == 2
        assert loaded[fingerprint(diag(code="UNI003"))] == 1

    def test_apply_is_a_multiset(self):
        baseline = {fingerprint(diag()): 1}
        # two instances of the same baselined finding: one is new debt
        remaining = apply_baseline([diag(line=10), diag(line=20)], baseline)
        assert len(remaining) == 1

    def test_apply_keeps_unknown_findings(self):
        remaining = apply_baseline([diag(code="UNI001")], {fingerprint(diag()): 5})
        assert [d.code for d in remaining] == ["UNI001"]

    def test_stale_entries_report_paid_down_debt(self):
        baseline = {fingerprint(diag()): 2, fingerprint(diag(code="UNI003")): 1}
        stale = stale_entries([diag()], baseline)
        assert stale == {
            fingerprint(diag()): 1,
            fingerprint(diag(code="UNI003")): 1,
        }

    def test_load_rejects_non_baseline_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        try:
            load_baseline(str(path))
        except ValueError as exc:
            assert "not a baseline file" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestSarif:
    def test_log_structure(self):
        log = json.loads(render_sarif([diag()]))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analysis"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"UNI001", "EXC001", "TSP003", "SEL001"} <= rule_ids

    def test_result_levels_and_location(self):
        log = json.loads(
            render_sarif([diag(sev=Severity.ERROR), diag(code="LNT001", sev=Severity.INFO)])
        )
        results = log["runs"][0]["results"]
        assert [r["level"] for r in results] == ["error", "note"]
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/a.py"
        assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert loc["region"] == {"startLine": 10, "startColumn": 3}

    def test_diagnostic_without_file_still_renders(self):
        d = Diagnostic("SEL001", Severity.ERROR, "unsatisfiable", subject="sel")
        results = json.loads(render_sarif([d]))["runs"][0]["results"]
        assert "locations" not in results[0]
        assert "[sel]" in results[0]["message"]["text"]


BAD_SOURCE = (
    "def combine(delay_ms, size_bytes):\n"
    "    return delay_ms + size_bytes\n"
)


class TestCli:
    def test_sarif_format_emits_valid_json(self, tmp_path, capsys):
        bad = tmp_path / "units.py"
        bad.write_text(BAD_SOURCE)
        main([str(bad), "--no-defaults", "--format", "sarif", "--fail-on", "never"])
        log = json.loads(capsys.readouterr().out)
        assert {r["ruleId"] for r in log["runs"][0]["results"]} >= {"UNI001"}

    def test_write_then_apply_baseline_gates_only_new_findings(self, tmp_path, capsys):
        bad = tmp_path / "units.py"
        bad.write_text(BAD_SOURCE)
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--no-defaults", "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        # baselined: the gate passes even at the strictest threshold
        assert (
            main([str(bad), "--no-defaults", "--baseline", str(baseline), "--fail-on", "info"])
            == 0
        )
        # without the baseline the same tree fails
        assert main([str(bad), "--no-defaults", "--fail-on", "warning"]) == 1

    def test_missing_baseline_treated_as_empty(self, tmp_path, capsys):
        bad = tmp_path / "units.py"
        bad.write_text(BAD_SOURCE)
        code = main(
            [str(bad), "--no-defaults", "--fail-on", "warning",
             "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "treating as empty" in capsys.readouterr().err

    def test_stale_baseline_entries_noted(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(dump_baseline([diag()]))
        assert main([str(good), "--no-defaults", "--baseline", str(baseline)]) == 0
        assert "no longer match" in capsys.readouterr().err

    def test_ignore_silences_the_dataflow_rule(self, tmp_path, capsys):
        bad = tmp_path / "units.py"
        bad.write_text(BAD_SOURCE)
        assert main([str(bad), "--no-defaults", "--fail-on", "warning"]) == 1
        assert (
            main([str(bad), "--no-defaults", "--fail-on", "warning", "--ignore", "UNI001"])
            == 0
        )

    def test_shipped_tree_is_clean_at_warning(self, capsys):
        # the acceptance gate: all UNI/EXC true positives in the tree
        # are fixed, so the analyzer passes with an empty baseline
        assert main(["src/repro", "--fail-on", "warning"]) == 0
