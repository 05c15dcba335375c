"""Unit tests for the selector analyzer (SAT, vacuity, types)."""

from unittest import mock

import pytest

from repro.analysis import Verdict, analyze_selector
from repro.analysis import selector_analysis
from repro.core.attributes import MISSING
from repro.core.selectors import Selector

from .test_property_sat import interesting_values


class TestSatisfiability:
    @pytest.mark.parametrize(
        "text",
        [
            "role == 'medic'",
            "x > 5 and x < 6",
            "x >= 5 and x <= 5",
            "caps contains 'jpeg' and caps contains 'png'",
            "x in [1, 2, 'a'] and x >= 2",
            "not x == 1",
            "exists(x) and x != 1",
            "a == 1 and b == 2 and c == 'z'",
            "x < 'b' and x > 'a'",
        ],
    )
    def test_sat_with_verified_witness(self, text):
        report = analyze_selector(text)
        assert report.verdict is Verdict.SAT
        assert report.witness is not None
        assert Selector(text).matches(report.witness)

    @pytest.mark.parametrize(
        "text",
        ["x == 'a' and x in ['a', 1]", "x in [1, 'a'] and x == 'a'", "x in ['a', 1] and x == 'a'"],
    )
    def test_mixed_type_membership_is_decided_in_either_order(self, text):
        # a mixed list asks for one of its sorts, so no conflict; and the
        # numeric pin that ``x == 'a'`` killed is not sampled for a witness
        report = analyze_selector(text)
        assert report.verdict is Verdict.SAT and report.witness == {"x": "a"}
        assert report.type_conflicts == ()

    @pytest.mark.parametrize(
        "text",
        [
            "x > 5 and x < 5",
            "x >= 5 and x < 5",
            "x == 1 and x == 2",
            "x == 1 and not x == 1",
            "x in [1, 2] and not x in [1, 2, 3]",
            "false",
            "x == true and not x",
            "not exists(x) and caps contains 'a' and caps == x or false",
        ],
    )
    def test_unsat(self, text):
        assert analyze_selector(text).verdict is Verdict.UNSAT

    def test_missing_semantics_not_a_tautology(self):
        # x >= 0 or x < 0 fails when x is absent: NOT vacuous
        report = analyze_selector("x >= 0 or x < 0")
        assert report.verdict is Verdict.SAT
        assert report.tautology is False

    def test_excluded_middle_on_equality_is_tautology(self):
        report = analyze_selector("x == 1 or not x == 1")
        assert report.tautology is True

    def test_attr_attr_comparison_degrades_to_unknown(self):
        report = analyze_selector("a == 1 and a < b and b < a")
        assert report.verdict is Verdict.UNKNOWN

    def test_same_attr_comparison_stays_exact(self):
        assert analyze_selector("x < x").verdict is Verdict.UNSAT
        assert analyze_selector("x <= x and x == 2").verdict is Verdict.SAT
        assert analyze_selector("x == x and not exists(x)").verdict is Verdict.UNSAT

    def test_clause_budget_truncates_to_unknown(self):
        clause = " or ".join(f"(a{i} == 1 and b{i} == 2)" for i in range(6))
        text = " and ".join(f"({clause})" for _ in range(5))
        with mock.patch.object(selector_analysis, "MAX_CLAUSES", 16):
            report = analyze_selector(text)
        assert report.verdict is Verdict.UNKNOWN
        assert report.truncated


class TestInterestingValues:
    def test_covers_constants_and_boundaries(self):
        domains = interesting_values("x > 5 and enc == 'jpeg'")
        assert MISSING in domains["x"]
        assert any(v == 5 for v in domains["x"] if not isinstance(v, bool))
        assert any(v == 6 for v in domains["x"] if not isinstance(v, bool))
        assert "jpeg" in domains["enc"]

    def test_contains_produces_list_candidates(self):
        domains = interesting_values("caps contains 'jpeg'")
        assert ["jpeg"] in domains["caps"]
        assert [] in domains["caps"]


def selector_corpus(n):
    """``n`` selectors in the five shapes the repository writes: role
    equalities with thresholds, bands, membership, negations, kinds."""
    roles = ("medic", "logistics", "command", "observer")
    encodings = ("jpeg", "mpeg2", "h261", "png")
    out = []
    for i in range(n):
        role, enc, lo = roles[i % 4], encodings[i % 4], 10 + (i * 7) % 60
        out.append(
            (
                f"role == '{role}' and battery >= {lo}",
                f"load > {lo} and load < {lo + 25} and exists(device)",
                f"encoding in ['{enc}', 'jpeg'] and caps contains '{enc}'",
                f"not (role == '{role}') or battery < {lo}",
                f"kind == 'alert' or (kind == 'chat' and priority >= {lo % 10})",
            )[i % 5]
        )
    return out


class TestGeneratedCorpus:
    def test_every_generated_selector_is_satisfiable(self):
        assert {analyze_selector(text).verdict for text in selector_corpus(100)} == {Verdict.SAT}
