"""The runtime needs numpy only: scipy is a test dependency, the oracle of
``tests/media/reference_describe.py``, and nothing under ``src/repro``
imports it or loads it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_runtime_loads_no_scipy():
    """A fresh process that imports the package and the figure runners
    has no ``scipy`` module in ``sys.modules``."""
    code = (
        "import json, sys\n"
        "import repro, repro.experiments\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(proc.stdout) == []


def test_no_runtime_module_imports_scipy():
    """Not even lazily: no import statement under ``src/repro`` names scipy."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []
