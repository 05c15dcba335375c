"""Tests for the inference engine."""

import dataclasses
import inspect

import pytest

from repro.core.basestation import BaseStation
from repro.core.client import WiredClient
from repro.core.contracts import Constraint, QoSContract
from repro.core.inference import AdaptationDecision, InferenceEngine, Modality, _snap_packets
from repro.core.policies import PolicyDatabase, default_policy_database
from repro.core.profiles import ClientProfile
from repro.media.images import collaboration_scene
from repro.media.metrics import psnr
from repro.media.progressive import ProgressiveImage


@pytest.fixture
def engine():
    return InferenceEngine(default_policy_database())


@pytest.fixture
def profile():
    return ClientProfile("c", {"role": "participant"})


class TestPacketDecision:
    def test_no_observation_full_budget(self, engine, profile):
        d = engine.infer(profile, {})
        assert d.packets == 16
        assert d.modality is Modality.IMAGE

    def test_page_fault_policy_applied(self, engine, profile):
        assert engine.infer(profile, {"page_faults": 30}).packets == 16
        assert engine.infer(profile, {"page_faults": 60}).packets == 4
        assert engine.infer(profile, {"page_faults": 100}).packets == 1

    def test_cpu_policy_applied(self, engine, profile):
        assert engine.infer(profile, {"cpu_load": 100}).packets == 0

    def test_most_constrained_wins(self, engine, profile):
        d = engine.infer(profile, {"page_faults": 30, "cpu_load": 90})
        assert d.packets == 1

    def test_packets_snap_to_powers_of_two(self, profile):
        from repro.core.policies import PolicyDatabase, StepPolicy

        db = PolicyDatabase()
        db.add_step("odd", StepPolicy("x", "packets", [(10, 13)], floor=5))
        engine = InferenceEngine(db)
        assert engine.infer(profile, {"x": 5}).packets == 8   # 13 -> 8
        assert engine.infer(profile, {"x": 50}).packets == 4  # 5 -> 4

    def test_decision_counter(self, engine, profile):
        engine.infer(profile, {})
        engine.infer(profile, {})
        assert engine.decisions_made == 2

    def test_reasons_populated(self, engine, profile):
        d = engine.infer(profile, {"page_faults": 70})
        assert any("policy packet budget" in r for r in d.reasons)


class TestModalityPreference:
    def test_profile_text_preference(self, engine):
        p = ClientProfile("c", {"modality": "text"})
        d = engine.infer(p, {})
        assert d.modality is Modality.TEXT
        assert "profile prefers text modality" in d.reasons

    def test_profile_speech_preference_chains(self, engine):
        p = ClientProfile("c", {"modality": "speech"})
        d = engine.infer(p, {})
        assert d.modality is Modality.SPEECH
        assert "profile prefers speech modality" in d.reasons

    def test_unknown_preference_falls_back_to_image(self, engine):
        p = ClientProfile("c", {"modality": "hologram"})
        assert engine.infer(p, {}).modality is Modality.IMAGE

    def test_sir_observation_does_not_gate(self, engine, profile):
        # the wireless tier is the base station's decision, not the engine's
        d = engine.infer(profile, {"sir_db": -30.0})
        assert d.packets == 16
        assert d.modality is Modality.IMAGE


class TestContractEnforcement:
    def test_contract_floor_clamps(self, profile):
        contract = QoSContract("floor", [Constraint("packets", minimum=2)])
        engine = InferenceEngine(default_policy_database(), contract=contract)
        d = engine.infer(profile, {"page_faults": 100})  # policy says 1
        assert d.packets == 2

    def test_unsatisfiable_contract_reports_violation(self, profile):
        contract = QoSContract("strict", [Constraint("cpu_load", maximum=50)])
        engine = InferenceEngine(default_policy_database(), contract=contract)
        d = engine.infer(profile, {"cpu_load": 95})
        assert d.degraded
        assert d.violations[0].observed == 95

    def test_satisfied_contract_not_degraded(self, profile):
        contract = QoSContract("ok", [Constraint("packets", minimum=1)])
        engine = InferenceEngine(default_policy_database(), contract=contract)
        d = engine.infer(profile, {"page_faults": 40})
        assert not d.degraded

    @pytest.mark.parametrize("floor, granted", [(3, 4), (5, 8)])
    def test_floor_between_steps_grants_next_step(self, profile, floor, granted):
        contract = QoSContract("floor", [Constraint("packets", minimum=floor)])
        engine = InferenceEngine(default_policy_database(), contract=contract)
        d = engine.infer(profile, {"page_faults": 100})  # policy says 1
        assert d.packets == granted
        assert not d.degraded
        assert f"contract clamps packets 1 -> {granted}" in d.reasons

    def test_no_step_in_range_keeps_snapped_value(self, profile):
        contract = QoSContract("band", [Constraint("packets", minimum=5, maximum=7)])
        engine = InferenceEngine(default_policy_database(), contract=contract)
        d = engine.infer(profile, {"page_faults": 100})
        assert d.packets == 4
        assert d.degraded
        assert str(d.violations[0]) == "packets=4 outside [5, 7]"

    def test_ceiling_reason_names_granted_value(self, profile):
        contract = QoSContract("cap", [Constraint("packets", maximum=3)])
        engine = InferenceEngine(default_policy_database(), contract=contract)
        d = engine.infer(profile, {"page_faults": 30})  # policy says 16
        assert d.packets == 2
        assert "contract clamps packets 16 -> 2" in d.reasons
        assert not d.degraded


class TestDecisionSurface:
    """The two decision points: the engine's budget and modality, and
    the base station's tier gate."""

    def test_decision_fields(self):
        names = [f.name for f in dataclasses.fields(AdaptationDecision)]
        assert names == ["packets", "modality", "violations", "reasons"]
        d = AdaptationDecision(packets=1, modality=Modality.IMAGE)
        assert not d.degraded

    def test_decide_tier_signature(self):
        assert list(inspect.signature(PolicyDatabase.decide_tier).parameters) == [
            "self",
            "sir_db",
        ]

    def test_monitor_and_adapt_signature(self):
        assert list(inspect.signature(WiredClient.monitor_and_adapt).parameters) == ["self"]

    def test_infer_signature(self):
        assert list(inspect.signature(InferenceEngine.infer).parameters) == [
            "self",
            "profile",
            "observed",
            "degraded",
        ]

    def test_methods_defined_on_their_classes(self):
        assert "infer" in InferenceEngine.__dict__
        assert "decide_tier" in PolicyDatabase.__dict__
        assert "monitor_and_adapt" in WiredClient.__dict__
        assert "evaluate_qos" in BaseStation.__dict__


def test_power_of_two_snapping_costs_at_most_one_halving():
    """The paper's budgets {0, 1, 2, 4, 8, 16} against a continuous budget:
    snapping never helps, and the worst loss sits just below a power of
    two, where a budget falls a whole step."""
    img = collaboration_scene(64, 64)
    prog = ProgressiveImage(img, n_packets=16, target_bpp=2.2)
    quality = {k: psnr(img, prog.reconstruct(k)) for k in range(17)}
    loss = {k: quality[k] - quality[_snap_packets(k)] for k in range(1, 17)}
    assert all(delta >= -0.3 for delta in loss.values())
    assert max(loss, key=loss.get) in (3, 7, 15)
    assert max(loss.values()) < 15.0
