"""The prose cites only repository paths and experiments that exist.

Every backticked path under one of the repository's top-level code
directories — whole, or as one word of a backticked command — that
a document of :data:`DOCS` cites must name a file or a directory of this
tree.  Globs are allowed; a ``:line`` or a ``::test``
suffix is ignored.  Every experiment a ``python -m repro.experiments
<name> ...`` command in those documents names must be one the command
runs.  Every CHANGES.md entry from :data:`CAPPED_FROM` on keeps the prose
cap: at most :data:`ENTRY_LINES` lines of at most :data:`LINE_CHARS`
characters; the long form goes in the PR's EXPERIMENTS.md HISTORY row,
and every HISTORY row from :data:`HISTORY_CAPPED_FROM` on is at most
:data:`ROW_LINES` lines.
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


#: the first CHANGES.md entry written under the cap, and the cap
CAPPED_FROM, ENTRY_LINES, LINE_CHARS = 35, 15, 100
ENTRY = re.compile(r"- PR (\d+) ")


def changes_entries(text):
    """``(number, lines)`` of each CHANGES.md entry: its ``- PR N`` line and
    the indented lines under it (a ``FOUND:`` or ``MENDED:`` line is not
    part of an entry)."""
    entries, lines = [], None
    for line in text.splitlines():
        if match := ENTRY.match(line):
            lines = [line]
            entries.append((int(match.group(1)), lines))
        elif lines is not None and line.startswith("  "):
            lines.append(line)
        else:
            lines = None
    return entries


def test_changes_entries_are_found():
    text = "- PR 1 (x): a\n  b\nFOUND: c\n  d\n- PR 2 (y): e\n"
    assert changes_entries(text) == [(1, ["- PR 1 (x): a", "  b"]), (2, ["- PR 2 (y): e"])]


def test_changes_entries_keep_the_cap():
    """Entry number -> (lines, lines over :data:`LINE_CHARS`) for each entry
    over the cap."""
    over = {}
    for number, lines in changes_entries((ROOT / "CHANGES.md").read_text()):
        too_long = sum(len(line) > LINE_CHARS for line in lines)
        if number >= CAPPED_FROM and (len(lines) > ENTRY_LINES or too_long):
            over[number] = (len(lines), too_long)
    assert over == {}


HISTORY_CAPPED_FROM, ROW_LINES = 43, 40
ROW = re.compile(r"- \*\*PR (\d+)\*\*")


def history_rows(text):
    """``(number, lines)`` of each row of EXPERIMENTS.md's HISTORY section:
    its ``- **PR N**`` line and every line up to the next row or heading,
    less trailing blank lines."""
    section = text.split("\n## HISTORY", 1)[1]
    rows, lines = [], None
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        if match := ROW.match(line):
            lines = [line]
            rows.append((int(match.group(1)), lines))
        elif lines is not None:
            lines.append(line)
    return [(number, "\n".join(lines).rstrip().splitlines()) for number, lines in rows]


def test_history_rows_are_found():
    text = "# T\n## HISTORY\nintro\n- **PR 1** (x): a\n  b\n\n- **PR 2** (y): c\n### Next\n- **PR 3**\n"
    assert history_rows(text) == [(1, ["- **PR 1** (x): a", "  b"]), (2, ["- **PR 2** (y): c"])]


def test_history_rows_keep_the_cap():
    """Row number -> its length, for each row over the cap."""
    over = {
        number: len(lines)
        for number, lines in history_rows((ROOT / "EXPERIMENTS.md").read_text())
        if number >= HISTORY_CAPPED_FROM and len(lines) > ROW_LINES
    }
    assert over == {}
