"""The ``python -m repro.analysis`` CLI: output formats and exit codes."""

import json

import pytest

from repro.analysis import RULES
from repro.analysis.__main__ import main

from .test_dataflow_corpus import BAD_UNITS
from .test_repo_lint import BARE_EXCEPT, TRANSPORT_CONSTRUCTION


@pytest.fixture
def error_file(tmp_path):
    """A file with one error: LNT003, a transport built outside messaging/."""
    bad = tmp_path / "bad.py"
    bad.write_text(TRANSPORT_CONSTRUCTION)
    return str(bad)


@pytest.fixture
def clean_file(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    return str(good)


class TestExitCodes:
    def test_clean_run_exits_zero(self, clean_file, capsys):
        assert main([clean_file]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_error_diagnostic_fails_gate(self, error_file, capsys):
        assert main([error_file]) == 1
        assert "LNT003" in capsys.readouterr().out

    def test_fail_on_never_always_exits_zero(self, error_file, capsys):
        assert main([error_file, "--fail-on", "never"]) == 0

    def test_fail_on_warning_catches_a_warning(self, tmp_path, capsys):
        # a bare except off the dispatch paths is only a warning: it
        # passes the default gate, fails the stricter one
        bad = tmp_path / "util.py"
        bad.write_text(BARE_EXCEPT)
        assert main([str(bad)]) == 0
        assert main([str(bad), "--fail-on", "warning"]) == 1

    def test_ignore_drops_the_rule(self, error_file, capsys):
        assert main([error_file, "--ignore", "LNT003"]) == 0


class TestOutput:
    def test_text_output_has_summary_line(self, error_file, capsys):
        main([error_file, "--fail-on", "never"])
        out = capsys.readouterr().out
        assert "error: LNT003" in out
        assert "analysis: 1 error(s)" in out

    def test_json_output_is_machine_readable(self, error_file, capsys):
        main([error_file, "--format", "json", "--fail-on", "never"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1
        assert payload["worst"] == "error"
        assert payload["diagnostics"][0]["code"] == "LNT003"

    def test_json_clean_run(self, clean_file, capsys):
        main([clean_file, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}
        assert payload["worst"] is None


class TestPaths:
    def test_explicit_path_is_linted(self, error_file, capsys):
        assert main([error_file]) == 1
        out = capsys.readouterr().out
        assert "LNT003" in out and "bad.py" in out

    def test_clean_path_passes(self, clean_file, capsys):
        assert main([clean_file]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 0 info(s)" in out


#: a graph-family finding (UNI001, a warning) in a file of its own
UNIT_MIX = BAD_UNITS[0][1]


class TestGraphFamily:
    def test_graph_finding_gates(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(UNIT_MIX)
        assert main([str(bad), "--fail-on", "warning"]) == 1
        assert "UNI001" in capsys.readouterr().out

    def test_ignore_silences_the_graph_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(UNIT_MIX)
        assert main([str(bad), "--fail-on", "warning", "--ignore", "UNI001"]) == 0
        assert "UNI001" not in capsys.readouterr().out

    def test_graph_findings_reach_sarif(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(UNIT_MIX)
        main([str(bad), "--format", "sarif", "--fail-on", "never"])
        sarif = json.loads(capsys.readouterr().out)
        results = sarif["runs"][0]["results"]
        assert any(r["ruleId"] == "UNI001" for r in results)
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert any(r["id"] == "UNI001" for r in rules)


class TestExplain:
    def test_explain_all_lists_every_rule(self, capsys):
        assert main(["--explain"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == sorted(RULES)

    def test_explain_specific_codes(self, capsys):
        assert main(["--explain", "UNI001", "RACE002"]) == 0
        out = capsys.readouterr().out
        assert "UNI001" in out and "RACE002" in out
        assert "LNT001" not in out

    def test_explain_unknown_code_fails(self, capsys):
        assert main(["--explain", "NOPE99"]) == 2
        assert "unknown rule code" in capsys.readouterr().err
