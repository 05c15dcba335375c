"""Registration raises no diagnostic, and the runtime does not know the
analyzer: no module outside ``repro.analysis`` imports it."""

import ast
import warnings
from pathlib import Path

import repro

from repro.analysis import DiagnosticWarning
from repro.core.policies import PolicyDatabase, StepPolicy
from repro.core.profiles import ClientProfile
from repro.messaging.broker import SemanticBus

ZIGZAG = StepPolicy("cpu_load", "packets", [(44, 16), (58, 1), (72, 8)], floor=2)


class TestPolicyDatabaseHook:
    def test_default_database_is_silent(self):
        db = PolicyDatabase()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticWarning)
            db.add_step("zigzag", ZIGZAG)
        assert db.decide_packets({"cpu_load": 50}) == 1  # the zigzag band decides


class TestSemanticBusHook:
    def test_default_bus_is_silent(self):
        bus = SemanticBus()
        profile = ClientProfile("nobody", interest="load > 80 and load < 20")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticWarning)
            bus.attach(profile, lambda delivery: None)

    def test_warning_does_not_block_attachment(self):
        """An interest no profile can satisfy still attaches."""
        profile = ClientProfile("nobody", interest="load > 80 and load < 20")
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
