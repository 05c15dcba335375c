"""The ``python -m repro.analysis`` CLI: output formats and exit codes."""

import json

from repro.analysis import RULES
from repro.analysis.__main__ import main

UNSAT = "load > 80 and load < 20"


class TestExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["--selector", "load > 80"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_error_diagnostic_fails_gate(self, capsys):
        assert main(["--selector", UNSAT]) == 1
        assert "SEL001" in capsys.readouterr().out

    def test_fail_on_never_always_exits_zero(self, capsys):
        assert main(["--selector", UNSAT, "--fail-on", "never"]) == 0

    def test_fail_on_warning_catches_tautology(self, capsys):
        # vacuous selector is only a warning: passes the default gate,
        # fails the stricter one
        assert main(["--selector", "x == 1 or not x == 1"]) == 0
        assert main(["--selector", "x == 1 or not x == 1", "--fail-on", "warning"]) == 1

    def test_ignore_drops_the_rule(self, capsys):
        assert main(["--selector", UNSAT, "--ignore", "SEL001"]) == 0


class TestOutput:
    def test_text_output_has_summary_line(self, capsys):
        main(["--selector", UNSAT, "--fail-on", "never"])
        out = capsys.readouterr().out
        assert "error: SEL001" in out
        assert "analysis: 1 error(s)" in out

    def test_json_output_is_machine_readable(self, capsys):
        main(["--selector", UNSAT, "--format", "json", "--fail-on", "never"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1
        assert payload["worst"] == "error"
        assert payload["diagnostics"][0]["code"] == "SEL001"

    def test_json_clean_run(self, capsys):
        main(["--selector", "load > 80", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}
        assert payload["worst"] is None


class TestPaths:
    def test_explicit_path_is_linted(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('sel = Selector("role == \'a\' and role == \'b\'")\n')
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SEL001" in out and "bad.py" in out

    def test_clean_path_passes(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text('sel = Selector("role == \'medic\'")\n')
        assert main([str(good)]) == 0

    def test_no_defaults_skips_policy_lint(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--no-defaults"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 0 info(s)" in out


BAD_TYPESTATE = (
    "class Session:\n"
    "    def __init__(self):\n"
    "        self.locks = LockManager()\n"
    "    def grab(self, key, client):\n"
    "        return self.locks.acquire(key, client)\n"
    "    def on_event(self, event):\n"
    "        if isinstance(event, LeaveEvent):\n"
    "            self.roster.discard(event.client_id)\n"
)


class TestTypestate:
    def test_typestate_finding_gates(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_TYPESTATE)
        assert main([str(bad), "--no-defaults"]) == 1
        assert "TSP003" in capsys.readouterr().out

    def test_ignore_silences_the_typestate_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_TYPESTATE)
        assert main([str(bad), "--no-defaults", "--ignore", "TSP003"]) == 0
        assert "TSP003" not in capsys.readouterr().out

    def test_typestate_findings_reach_sarif(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_TYPESTATE)
        main([str(bad), "--no-defaults", "--format", "sarif", "--fail-on", "never"])
        sarif = json.loads(capsys.readouterr().out)
        results = sarif["runs"][0]["results"]
        assert any(r["ruleId"] == "TSP003" for r in results)
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert any(r["id"] == "TSP003" for r in rules)


class TestExplain:
    def test_explain_all_lists_every_rule(self, capsys):
        assert main(["--explain"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == sorted(RULES)

    def test_explain_specific_codes(self, capsys):
        assert main(["--explain", "TSP003", "RACE002"]) == 0
        out = capsys.readouterr().out
        assert "TSP003" in out and "RACE002" in out
        assert "SEL001" not in out

    def test_explain_unknown_code_fails(self, capsys):
        assert main(["--explain", "NOPE99"]) == 2
        assert "unknown rule code" in capsys.readouterr().err
