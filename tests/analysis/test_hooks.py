"""Static diagnostics are asked for, never raised by registration.

Registering a policy or attaching a profile stays silent; the findings
come from the direct calls, :meth:`PolicyDatabase.lint` and
:func:`~repro.analysis.lint_profile`.
"""

import warnings

from repro.analysis import DiagnosticWarning, lint_profile, lint_step_policy
from repro.core.policies import PolicyDatabase, SirTierPolicy, StepPolicy
from repro.core.profiles import ClientProfile
from repro.messaging.broker import SemanticBus

ZIGZAG = StepPolicy("cpu_load", "packets", [(44, 16), (58, 1), (72, 8)], floor=2)


def codes(diagnostics):
    return {diag.code for diag in diagnostics}


class TestPolicyDatabaseHook:
    def test_validating_database_warns_on_bad_policy(self):
        """``lint()`` reports what a registration lets through."""
        db = PolicyDatabase()
        db.add_step("zigzag", ZIGZAG)
        assert "zigzag" in db.step_policies
        assert "POL001" in codes(db.lint())

    def test_validating_database_warns_on_collapsed_tiers(self):
        db = PolicyDatabase()
        db.set_sir_policy(SirTierPolicy(image_db=4.0, sketch_db=4.0, text_db=-6.0))
        assert "POL004" in codes(db.lint())

    def test_default_database_is_silent(self):
        db = PolicyDatabase()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticWarning)
            db.add_step("zigzag", ZIGZAG)
        assert "zigzag" in db.step_policies

    def test_clean_policy_emits_nothing(self):
        assert lint_step_policy(StepPolicy("cpu_load", "packets", [(44, 16), (58, 8)], floor=1)) == []


class TestSemanticBusHook:
    def test_validating_bus_warns_on_unsat_interest(self):
        profile = ClientProfile("nobody", interest="load > 80 and load < 20")
        assert "SEL001" in codes(lint_profile(profile))

    def test_default_bus_is_silent(self):
        bus = SemanticBus()
        profile = ClientProfile("nobody", interest="load > 80 and load < 20")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticWarning)
            bus.attach(profile, lambda delivery: None)

    def test_default_accept_everything_interest_not_flagged(self):
        assert lint_profile(ClientProfile("quiet")) == []

    def test_warning_does_not_block_attachment(self):
        profile = ClientProfile("nobody", interest="load > 80 and load < 20")
        assert lint_profile(profile)
        assert SemanticBus().attach(profile, lambda delivery: None).active
