"""The seeded corpus of known-bad configs — every case must be flagged.

This is the analyzer's acceptance gate: each entry is a configuration
bug class (unsatisfiable selector, tautology, type conflict, overlapping
SIR tiers, non-monotone step thresholds, ...) paired with the rule code the
analyzer must raise for it.  The flip side is also enforced here: the
shipped defaults and examples must produce **zero error-severity**
diagnostics.
"""

import os

import pytest

from repro.analysis import (
    RULES,
    Severity,
    analyze_defaults,
    lint_policy_database,
    lint_sir_policy,
    lint_step_policy,
    run_analysis,
    selector_diagnostics,
)
from repro.core.policies import PolicyDatabase, SirTierPolicy, StepPolicy
from repro.core.profiles import ClientProfile

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


# ----------------------------------------------------------------------
# selector corpus
# ----------------------------------------------------------------------
BAD_SELECTORS = [
    # (case name, selector text, expected rule code)
    ("unsatisfiable-interval", "load > 80 and load < 20", "SEL001"),
    ("unsatisfiable-equalities", "role == 'medic' and role == 'clerk'", "SEL001"),
    ("unsatisfiable-membership", "enc in ['mpeg2', 'jpeg'] and enc == 'h261'", "SEL001"),
    ("unsatisfiable-presence", "not exists(battery) and battery > 10", "SEL001"),
    ("unsatisfiable-bool", "wireless and not wireless", "SEL001"),
    ("unsatisfiable-contains", "caps contains 'jpeg' and not caps contains 'jpeg'", "SEL001"),
    ("tautology-excluded-middle", "load >= 50 or not load >= 50", "SEL002"),
    ("tautology-constant", "x == 1 or true", "SEL002"),
    ("type-conflict-num-str", "size > 100 and size == 'large'", "SEL003"),
    ("type-conflict-list-scalar", "caps contains 'jpeg' and caps == 'jpeg'", "SEL003"),
    ("syntax-error", "role == ", "SEL006"),
    ("syntax-bad-char", "role == @medic", "SEL006"),
]


@pytest.mark.parametrize("name,text,code", BAD_SELECTORS, ids=[c[0] for c in BAD_SELECTORS])
def test_bad_selector_flagged(name, text, code):
    codes = {d.code for d in selector_diagnostics(text)}
    assert code in codes, f"{name}: expected {code}, got {codes}"


# ----------------------------------------------------------------------
# policy corpus
# ----------------------------------------------------------------------
def test_non_monotone_step_thresholds_flagged():
    policy = StepPolicy("cpu_load", "packets", [(44, 16), (58, 1), (72, 8)], floor=2)
    codes = {d.code for d in lint_step_policy(policy, "zigzag")}
    assert "POL001" in codes


def test_unreachable_step_threshold_flagged():
    policy = StepPolicy("cpu_load", "packets", [(44, 8), (58, 8), (72, 4)], floor=1)
    codes = {d.code for d in lint_step_policy(policy, "flat-band")}
    assert "POL002" in codes


def test_packet_value_outside_paper_set_flagged():
    policy = StepPolicy("page_faults", "packets", [(50, 12), (70, 3)], floor=1)
    diags = lint_step_policy(policy, "off-grid")
    assert any(d.code == "POL003" and d.severity is Severity.ERROR for d in diags)


def test_overlapping_sir_tiers_flagged():
    collapsed = SirTierPolicy(image_db=4.0, sketch_db=4.0, text_db=-6.0)
    diags = lint_sir_policy(collapsed)
    assert any(d.code == "POL004" and d.severity is Severity.ERROR for d in diags)
    both = SirTierPolicy(image_db=0.0, sketch_db=0.0, text_db=0.0)
    assert len([d for d in lint_sir_policy(both) if d.code == "POL004"]) == 2


def test_unsatisfiable_interest_flagged_on_profile():
    profile = ClientProfile("nobody", interest="load > 80 and load < 20")
    diags = selector_diagnostics(profile.interest)
    assert any(d.code == "SEL001" and d.severity is Severity.ERROR for d in diags)


# ----------------------------------------------------------------------
# every configuration rule but SEL004 has a known-bad case here
# ----------------------------------------------------------------------
def test_corpus_breadth():
    classes = {code for _, _, code in BAD_SELECTORS}
    classes.update({"POL001", "POL002", "POL003", "POL004"})
    config = {code for code in RULES if code.startswith(("SEL", "POL"))}
    assert classes == config - {"SEL004"}  # SEL004's case is test_selector_analysis.py's


# ----------------------------------------------------------------------
# shipped defaults and examples are clean
# ----------------------------------------------------------------------
def test_default_policy_database_is_clean():
    assert analyze_defaults() == []


def test_shipped_tree_has_zero_error_diagnostics():
    paths = [
        os.path.join(REPO_ROOT, "src", "repro"),
        os.path.join(REPO_ROOT, "examples"),
    ]
    report = run_analysis([p for p in paths if os.path.exists(p)])
    assert report.errors == (), "\n".join(d.format() for d in report.errors)


def test_default_database_lint_method_clean():
    db = PolicyDatabase()
    from repro.core.policies import (
        default_bandwidth_policy,
        default_cpu_load_policy,
        default_page_fault_policy,
    )

    db.add_step("page-faults", default_page_fault_policy())
    db.add_step("cpu-load", default_cpu_load_policy())
    db.add_step("bandwidth", default_bandwidth_policy())
    diags = lint_policy_database(db)
    assert [d for d in diags if d.severity is Severity.ERROR] == []
