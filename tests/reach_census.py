"""Reach census of ``src/repro``: the code the program's own callers run.

Not a test module (pytest does not collect it).  From the repository root::

    python tests/reach_census.py

Each caller runs in a fresh process with a ``sitecustomize`` on
``PYTHONPATH`` that installs ``sys.settrace`` / ``threading.settrace`` and
writes, at exit, every (file, line) it saw under ``src/repro``.  The
executable lines of a file are the line starts (``dis.findlinestarts``) of
all its code objects; each line belongs to the innermost function, class or
module that starts it.  Tier-1 is one traced ``pytest -q`` (the
subprocesses its tests start set their own ``PYTHONPATH`` and are not
traced).  The report gives the lines each caller set reaches, then, per
file, the units and line ranges no caller reaches, split into "tier-1 only"
and "nothing"; a unit marked ``*`` is entered by no caller at all.
"""

from __future__ import annotations

import dis
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
WORKERS = ("image_share_adaptive", "event_fanout_wide", "event_fanout_aged", "wireless_tier_gate",
           "fabric_membership_churn", "fabric_cast_steady", "broker_match_scale", "adaptation_poll")
PY = sys.executable
CALLERS = {
    "examples": [[PY, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))],
    "experiments": [[PY, "-m", "repro.experiments"]],
    "bench workers": [[PY, "bench/run.py", "--worker", w, "--seed", "0", "--ops", "120"]
                      for w in WORKERS],
    "analyzer CI": [[PY, "-m", "repro.analysis", "--fail-on", "warning", "--profile"],
                    [PY, "-m", "repro.analysis", "--format", "sarif", "--fail-on", "never"],
                    [PY, "tests/analysis/corpus_common.py"],
                    [PY, "-m", "repro.analysis.wirefuzz", "--seed", "1337"]],
}
TIER1 = [[PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]]

SITECUSTOMIZE = '''import atexit, os, sys, threading
seen, mine = set(), {}
def local(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return local
def start(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in mine:
        mine[name] = os.path.realpath(name).startswith(%(src)r + os.sep)
    if mine[name]:
        seen.add((name, frame.f_lineno))
        return local
def dump():
    sys.settrace(None)
    repro = sys.modules.get("repro")
    with open(os.path.join(%(out)r, "%%d.txt" %% os.getpid()), "w") as f:
        f.write((os.path.realpath(repro.__file__) if repro else "-") + "\\n")
        f.writelines("%%s\\t%%d\\n" %% (os.path.realpath(n), l) for n, l in seen)
atexit.register(dump)
threading.settrace(start)
sys.settrace(start)
'''


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of ``path`` -> qualified name of the unit that starts it."""
    owner: dict[int, str] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:  # parents before children: a def line belongs to its parent
        code = todo.pop(0)
        for _, line in dis.findlinestarts(code):
            if line:  # a module's RESUME sits on line 0, which is no source line
                owner.setdefault(line, code.co_qualname)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return owner


def unreached(lines: dict[int, str], seen: set[int]) -> dict[str, list[tuple[int, int]]]:
    """Per unit, the runs of its consecutive executable lines that ``seen`` misses."""
    runs: dict[str, list[tuple[int, int]]] = {}
    last: dict[str, int] = {}  # unit -> its previous executable line
    for line in sorted(lines):
        unit = lines[line]
        if line not in seen:
            ranges = runs.setdefault(unit, [])
            if ranges and ranges[-1][1] == last.get(unit):
                ranges[-1] = (ranges[-1][0], line)
            else:
                ranges.append((line, line))
        last[unit] = line
    return runs


def trace(commands: list[list[str]], work: Path) -> dict[str, set[int]]:
    """Run ``commands`` traced; return the lines seen, per file under ``src/repro``."""
    site, out = work / "site", work / "out"
    site.mkdir(parents=True)
    out.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE % {"src": str(SRC), "out": str(out)})
    env = {**os.environ, "PYTHONPATH": f"{site}{os.pathsep}{ROOT / 'src'}", "PYTHONHASHSEED": "0"}
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            tail = (done.stdout + done.stderr).splitlines()[-20:]
            raise SystemExit("\n".join([f"{' '.join(cmd[1:])} exited {done.returncode}", *tail]))
    seen: dict[str, set[int]] = {}
    for dump in out.iterdir():
        origin, *rows = dump.read_text().splitlines()
        if origin != "-" and not Path(origin).is_relative_to(SRC):
            raise SystemExit(f"repro was imported from {origin}, not from {SRC}")
        for row in rows:
            name, line = row.split("\t")
            seen.setdefault(name, set()).add(int(line))
    return seen


def main() -> None:
    files = {str(p): executable_lines(p) for p in sorted(SRC.rglob("*.py"))}
    with tempfile.TemporaryDirectory() as tmp:
        sets = {name: trace(cmds, Path(tmp, name)) for name, cmds in {**CALLERS, "tier-1": TIER1}.items()}
    callers = {f: set().union(*(sets[s].get(f, set()) for s in CALLERS)) for f in files}
    tier1 = {f: sets["tier-1"].get(f, set()) for f in files}

    def count(seen: dict[str, set[int]], analysis: bool) -> int:
        return sum(len(seen.get(f, set()) & lines.keys()) for f, lines in files.items()
                   if ("/analysis/" in f) == analysis)

    rows = [("executable", {f: set(lines) for f, lines in files.items()})]
    rows += [(name, sets[name]) for name in CALLERS]
    rows += [("all callers", callers), ("tier-1", tier1),
             ("callers and tier-1", {f: callers[f] | tier1[f] for f in files})]
    print(f"{'lines':<20}{'outside analysis/':>18}{'analysis/':>11}")
    for name, seen in rows:
        print(f"{name:<20}{count(seen, False):>18}{count(seen, True):>11}")
    for f, lines in files.items():
        entered = {lines[line] for line in callers[f] & lines.keys()}
        report = []
        for label, seen in (("tier-1 only", callers[f] | (set(lines) - tier1[f])),
                            ("nothing", callers[f] | tier1[f])):
            units = unreached(lines, seen)
            if units:
                report.append(f"  {label}: " + "; ".join(
                    f"{unit}{'' if unit in entered else '*'} "
                    + ", ".join(f"{a}-{b}" if a != b else str(a) for a, b in ranges)
                    for unit, ranges in units.items()))
        if report:
            print(Path(f).relative_to(SRC.parent), *report, sep="\n")


if __name__ == "__main__":
    main()
