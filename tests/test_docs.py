"""The prose cites only repository paths and experiments that exist.

Every backticked path under one of the repository's top-level code
directories — whole, or as one word of a backticked command — that
a document of :data:`DOCS` cites must name a file or a directory of this
tree.  Globs are allowed; a ``:line`` or a ``::test``
suffix is ignored.  Every experiment a ``python -m repro.experiments
<name> ...`` command in those documents names must be one the command
runs.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.__main__ import _RUNNERS

ROOT = Path(__file__).resolve().parents[1]
DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/analysis.md",
    ".claude/skills/verify/SKILL.md",
)
TOP = ("src/", "tests/", "examples/", "bench/", "docs/", ".github/")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
SUFFIX = re.compile(r"::.*|:\d.*")
#: the experiment names of one ``python -m repro.experiments`` command, up
#: to a comment, a redirection or the end of the line
EXPERIMENTS_CLI = re.compile(r"python -m repro\.experiments((?:[ \t]+[\w-]+)*)")


def cited_paths(text):
    """The repository paths cited in backticks in ``text``, in order."""
    for span in CODE_SPAN.findall(text):
        for word in span.split():
            if word.startswith(TOP):
                yield SUFFIX.sub("", word).rstrip("/")


def test_cited_paths_are_found():
    text = "see `src/a.py:12`, `tests/b.py::TestC::test_d`, `python bench/run.py --all` and `x/y.py`"
    assert list(cited_paths(text)) == ["src/a.py", "tests/b.py", "bench/run.py"]


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_path_exists(doc):
    missing = sorted({p for p in cited_paths((ROOT / doc).read_text()) if not any(ROOT.glob(p))})
    assert missing == []


def cited_experiments(text):
    """The experiment names ``python -m repro.experiments`` is run with in
    ``text``, in order."""
    for names in EXPERIMENTS_CLI.findall(text):
        yield from names.split()


def test_cited_experiments_are_found():
    text = "`python -m repro.experiments fig6 chaos  # two` and python -m repro.experiments\nfig7"
    assert list(cited_experiments(text)) == ["fig6", "chaos"]


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_experiment_runs(doc):
    assert sorted(set(cited_experiments((ROOT / doc).read_text())) - set(_RUNNERS)) == []
