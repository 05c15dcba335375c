"""Every repository path a CI ``run:`` command names exists.

A step that runs a deleted test module, script or data file fails only on
the runner.  This reads ``.github/workflows/ci.yml`` and checks each
path word of each ``run:`` command, a one-line value or a ``|`` block,
against the tree: one of the repository's top-level code directories, a
path under one, or a file at the root.  The target of a ``>``
redirection is written by the step, not read, so it is not checked.
"""

import re
import shlex

from .test_docs import ROOT, TOP

WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
RUN = re.compile(r"^( *)(?:- )?run:\s*(.*)$")
ROOT_FILE = re.compile(r"^[\w.-]+\.(?:py|json|toml|cfg|ini|txt|md|ya?ml)$")


def run_commands(text):
    """The command lines of every ``run:`` key in the workflow ``text``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        match = RUN.match(line)
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value not in ("|", ">"):
            yield value
            continue
        for body in lines[i + 1 :]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            if body.strip():
                yield body.strip()


def repo_paths(command):
    """The words of ``command`` that name a repository path."""
    words = shlex.split(command, comments=True)
    for before, word in zip([None, *words], words):
        if before == ">":
            continue
        if f"{word}/".startswith(TOP) or ROOT_FILE.match(word):
            yield word.rstrip("/")


def test_run_commands_and_paths_are_found():
    text = (
        "steps:\n"
        "  - name: one\n"
        "    run: python -m pytest tests/a.py src/ -k 'x or y' --flag=v\n"
        "  - name: two\n"
        "    run: |\n"
        "      python bench/run.py --all  # tests/not_a_path.py\n"
        "      python -m tool --out x > out.json\n"
        "  - name: three\n"
        "    run: cat setup.cfg\n"
    )
    commands = list(run_commands(text))
    assert len(commands) == 4
    assert [p for c in commands for p in repo_paths(c)] == [
        "tests/a.py",
        "src",
        "bench/run.py",
        "setup.cfg",
    ]


def test_every_path_a_ci_step_names_exists():
    paths = {p for c in run_commands(WORKFLOW.read_text()) for p in repo_paths(c)}
    assert {"tests", "bench/run.py", "tests/analysis/corpus_common.py"} <= paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []
