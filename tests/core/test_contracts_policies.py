"""Tests for QoS contracts and the policy database."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.contracts import Constraint, ContractError, QoSContract
from repro.core.policies import (
    ModalityTier,
    PolicyDatabase,
    PolicyError,
    SirTierPolicy,
    StepPolicy,
    default_cpu_load_policy,
    default_page_fault_policy,
    default_policy_database,
)


class TestConstraint:
    def test_range_check(self):
        c = Constraint("packets", minimum=1, maximum=16)
        assert c.satisfied(8)
        assert c.satisfied(1) and c.satisfied(16)
        assert not c.satisfied(0)
        assert not c.satisfied(17)

    def test_one_sided(self):
        assert Constraint("x", minimum=5).satisfied(1e9)
        assert Constraint("x", maximum=5).satisfied(-1e9)

    def test_clamp(self):
        c = Constraint("x", minimum=2, maximum=8)
        assert c.clamp(0) == 2
        assert c.clamp(10) == 8
        assert c.clamp(5) == 5

    def test_invalid(self):
        with pytest.raises(ContractError):
            Constraint("x")
        with pytest.raises(ContractError):
            Constraint("x", minimum=5, maximum=2)


class TestContract:
    def test_violations_reported(self):
        contract = QoSContract("viewer", [
            Constraint("packets", minimum=2),
            Constraint("latency_ms", maximum=100),
        ])
        v = contract.violations({"packets": 1, "latency_ms": 500})
        assert len(v) == 2
        assert {x.constraint.parameter for x in v} == {"packets", "latency_ms"}

    def test_missing_parameters_skipped(self):
        contract = QoSContract("c", [Constraint("packets", minimum=2)])
        assert contract.violations({"other": 0}) == []

    def test_clamp_unbounded_passthrough(self):
        contract = QoSContract("c")
        assert contract.clamp("anything", 42.0) == 42.0

    def test_add_replaces(self):
        contract = QoSContract("c", [Constraint("x", minimum=1)])
        contract.add(Constraint("x", minimum=5))
        assert contract.violations({"x": 3})

    def test_violation_str(self):
        contract = QoSContract("c", [Constraint("x", minimum=1, maximum=2)])
        (v,) = contract.violations({"x": 9})
        assert "x=9" in str(v)


class TestStepPolicy:
    def test_band_selection(self):
        p = StepPolicy("pf", "packets", [(44, 16), (58, 8), (72, 4), (86, 2)], floor=1)
        assert p.decide(30) == 16
        assert p.decide(44) == 8   # bound is exclusive upper edge
        assert p.decide(57.9) == 8
        assert p.decide(100) == 1

    def test_validation(self):
        with pytest.raises(PolicyError):
            StepPolicy("x", "y", [], floor=0)
        with pytest.raises(PolicyError):
            StepPolicy("x", "y", [(10, 1), (5, 2)], floor=0)
        with pytest.raises(PolicyError):
            StepPolicy("x", "y", [(10, 1), (10, 2)], floor=0)

    @given(st.floats(min_value=0, max_value=200))
    def test_monotone_non_increasing(self, x):
        p = default_page_fault_policy()
        assert p.decide(x) >= p.decide(x + 10)

    def test_paper_page_fault_anchors(self):
        p = default_page_fault_policy()
        assert p.decide(30) == 16
        assert p.decide(100) == 1
        values = {p.decide(x) for x in range(30, 101)}
        assert values == {16, 8, 4, 2, 1}  # powers of two, all visited

    def test_paper_cpu_anchors(self):
        p = default_cpu_load_policy()
        assert p.decide(30) == 16
        assert p.decide(100) == 0


class TestSirTierPolicy:
    def test_default_thresholds(self):
        p = SirTierPolicy()
        assert p.tier(10.0) is ModalityTier.FULL_IMAGE
        assert p.tier(4.0) is ModalityTier.FULL_IMAGE  # paper's 4 dB boundary
        assert p.tier(2.0) is ModalityTier.TEXT_AND_SKETCH
        assert p.tier(-3.0) is ModalityTier.TEXT_ONLY
        assert p.tier(-20.0) is ModalityTier.NOTHING

    def test_each_threshold_belongs_to_the_tier_above_it(self):
        p = SirTierPolicy()
        for threshold, tier in ((4.0, "FULL_IMAGE"), (0.0, "TEXT_AND_SKETCH"), (-6.0, "TEXT_ONLY")):
            assert p.tier(threshold) is ModalityTier[tier]
            assert p.tier(math.nextafter(threshold, -math.inf)) is ModalityTier(ModalityTier[tier] - 1)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(PolicyError):
            SirTierPolicy(image_db=1.0, sketch_db=5.0)

    def test_tier_is_monotone(self):
        p = SirTierPolicy()
        sirs = [-20, -6, 0, 4, 20]
        tiers = [p.tier(s) for s in sirs]
        assert tiers == sorted(tiers)


class TestPolicyDatabase:
    def test_most_constrained_wins(self):
        db = default_policy_database()
        packets = db.decide_packets({"page_faults": 30, "cpu_load": 90})
        assert packets == 1  # cpu says 1, pf says 16 -> min

    def test_no_observation_returns_none(self):
        db = default_policy_database()
        assert db.decide_packets({"unrelated": 5}) is None

    def test_partial_observation(self):
        db = default_policy_database()
        assert db.decide_packets({"page_faults": 60}) == 4

    def test_add_step(self):
        db = PolicyDatabase()
        db.add_step("mem", StepPolicy("free_mem", "packets", [(1000, 2)], floor=16))
        assert db.decide_packets({"free_mem": 500}) == 2

    def test_sir_policy_swap(self):
        db = PolicyDatabase()
        db.set_sir_policy(SirTierPolicy(image_db=10.0, sketch_db=5.0, text_db=0.0))
        assert db.decide_tier(7.0) is ModalityTier.TEXT_AND_SKETCH
