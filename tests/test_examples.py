"""Every runnable example exits cleanly and prints its narration, and none
loads the static analyzer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


_ALL_EXAMPLES = """
import json
import runpy
import sys

for script in sys.argv[1:]:
    runpy.run_path(script, run_name="__main__")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro."))))
"""


def test_no_example_loads_the_analyzer():
    """The static analyzer stays out of the runtime: running every
    example in one process never imports a ``repro.analysis`` module."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _ALL_EXAMPLES, *map(str, EXAMPLES)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert {"repro.core.framework", "repro.messaging.broker", "repro.snmp.manager"} <= set(loaded)
    assert [name for name in loaded if name.split(".")[:2] == ["repro", "analysis"]] == []
