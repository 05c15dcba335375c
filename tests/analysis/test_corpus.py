"""The seeded corpus of known-bad configs — every case must be flagged.

This is the analyzer's acceptance gate: each entry is a configuration
bug class named in the issue (unsatisfiable selector, tautology, type
conflict, overlapping SIR tiers, non-monotone step thresholds, transform
cycle, contract/policy contradiction, ...) paired with the rule code the
analyzer must raise for it.  The flip side is also enforced here: the
shipped defaults and examples must produce **zero error-severity**
diagnostics.
"""

import os

import pytest

from repro.analysis import (
    Severity,
    analyze_defaults,
    lint_contract_against,
    lint_policy_database,
    lint_profile,
    lint_sir_policy,
    lint_step_policy,
    run_analysis,
    selector_diagnostics,
)
from repro.core.contracts import Constraint, QoSContract
from repro.core.policies import PolicyDatabase, SirTierPolicy, StepPolicy
from repro.core.profiles import ClientProfile, TransformRule

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
# policy / contract / transform corpus
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


def test_contract_policy_contradiction_flagged():
    db = PolicyDatabase()
    db.add_step("cpu", StepPolicy("cpu_load", "packets", [(44, 16), (58, 8)], floor=1))
    # policies can produce {16, 8, 1} (plus the 16 full budget); [3, 5] is
    # unreachable -> permanently violated contract
    contract = QoSContract("strict-viewer", [Constraint("packets", minimum=3, maximum=5)])
    diags = lint_contract_against(contract, db)
    assert any(d.code == "POL005" and d.severity is Severity.ERROR for d in diags)


def test_contract_unknown_parameter_noted():
    db = PolicyDatabase()
    db.add_step("cpu", StepPolicy("cpu_load", "packets", [(44, 16)], floor=1))
    contract = QoSContract("typo", [Constraint("packtes", minimum=1)])
    assert any(d.code == "POL006" for d in lint_contract_against(contract, db))


def test_transform_cycle_flagged():
    profile = ClientProfile(
        "looper",
        interest="kind == 'image'",
        transforms=[
            TransformRule("encoding", "mpeg2", "jpeg"),
            TransformRule("encoding", "jpeg", "mpeg2"),
        ],
    )
    assert any(d.code == "PRO001" for d in lint_profile(profile))


def test_dead_transform_rule_flagged():
    # interest only ever accepts jpeg; a rule producing 'png' that nothing
    # consumes can never make a message acceptable
    profile = ClientProfile(
        "deadend",
        interest="encoding == 'jpeg'",
        transforms=[TransformRule("encoding", "mpeg2", "png")],
    )
    assert any(d.code == "PRO002" for d in lint_profile(profile))


def test_chained_transform_rule_not_flagged_dead():
    # mpeg2 -> png -> jpeg: the first rule feeds the second, which the
    # interest accepts; neither is dead
    profile = ClientProfile(
        "chain",
        interest="encoding == 'jpeg'",
        transforms=[
            TransformRule("encoding", "mpeg2", "png"),
            TransformRule("encoding", "png", "jpeg"),
        ],
    )
    assert not any(d.code == "PRO002" for d in lint_profile(profile))


def test_noop_transform_rule_flagged():
    profile = ClientProfile(
        "noop", transforms=[TransformRule("encoding", "jpeg", "jpeg")]
    )
    assert any(d.code == "PRO003" for d in lint_profile(profile))


def test_unsatisfiable_interest_flagged_on_profile():
    profile = ClientProfile("nobody", interest="load > 80 and load < 20")
    diags = lint_profile(profile)
    assert any(d.code == "SEL001" and d.severity is Severity.ERROR for d in diags)


# ----------------------------------------------------------------------
# the corpus has at least 10 distinct bug classes
# ----------------------------------------------------------------------
def test_corpus_breadth():
    classes = {code for _, _, code in BAD_SELECTORS}
    classes.update({"POL001", "POL002", "POL003", "POL004", "POL005", "PRO001", "PRO002"})
    assert len(classes) >= 10


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
    contract = QoSContract("viewer", [Constraint("packets", minimum=1)])
    diags = lint_policy_database(db, [contract])
    assert [d for d in diags if d.severity is Severity.ERROR] == []
