"""Static diagnostics are asked for, never raised by registration.

Registering a policy or attaching a profile stays silent; the findings
come from the direct calls, :func:`~repro.analysis.lint_policy_database`
and :func:`~repro.analysis.lint_profile`.  The runtime does not know the
analyzer: no module outside ``repro.analysis`` imports it.
"""

import ast
import warnings
from pathlib import Path

import repro

from repro.analysis import DiagnosticWarning, lint_policy_database, lint_profile, lint_step_policy
from repro.core.policies import PolicyDatabase, SirTierPolicy, StepPolicy
from repro.core.profiles import ClientProfile
from repro.messaging.broker import SemanticBus

ZIGZAG = StepPolicy("cpu_load", "packets", [(44, 16), (58, 1), (72, 8)], floor=2)


def codes(diagnostics):
    return {diag.code for diag in diagnostics}


class TestPolicyDatabaseHook:
    def test_validating_database_warns_on_bad_policy(self):
        """``lint_policy_database`` reports what a registration lets through."""
        db = PolicyDatabase()
        db.add_step("zigzag", ZIGZAG)
        assert "zigzag" in db.step_policies
        assert "POL001" in codes(lint_policy_database(db, ()))

    def test_validating_database_warns_on_collapsed_tiers(self):
        db = PolicyDatabase()
        db.set_sir_policy(SirTierPolicy(image_db=4.0, sketch_db=4.0, text_db=-6.0))
        assert "POL004" in codes(lint_policy_database(db, ()))

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


def test_the_runtime_imports_nothing_from_the_analyzer():
    """Not even lazily or for a type: only ``repro.analysis`` imports itself."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if parts[0] == "analysis":
            continue
        package = ["repro", *parts[:-1]]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(package[: len(package) - node.level + 1] if node.level else [])
                module = ".".join(filter(None, [base, node.module]))
                modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(m == "repro.analysis" or m.startswith("repro.analysis.") for m in modules):
                found.append(f"{'/'.join(parts)}:{node.lineno}")
    assert found == []
