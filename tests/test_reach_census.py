"""The reach census's two pure helpers, checked on a tiny module.

``tests/reach_census.py`` runs for minutes, so tier-1 only checks the
parts that decide its numbers: the executable lines of a file (the line
starts of every code object, each owned by the innermost unit that
starts it) and the unreached ranges per unit given the lines a run saw.
"""

import dis
import types

from tests.reach_census import executable_lines, unreached

FIXTURE = '''\
"""A docstring."""
import os


def outer(x):
    if x:
        return os.sep

    def inner():
        return 1

    return inner()


class Box:
    size = 3

    def grow(self):
        self.size += 1
        return self.size
'''


def line_starts(source, name):
    """Every line start of every code object, the way ``dis`` lists them."""
    out, todo = set(), [compile(source, name, "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return out


def test_executable_lines_are_the_line_starts_with_their_units(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    lines = executable_lines(path)
    assert set(lines) == line_starts(FIXTURE, str(path))
    assert 0 not in lines  # a module's RESUME is no source line
    assert lines[2] == lines[5] == lines[15] == "<module>"  # a def line is its parent's
    assert lines[6] == lines[7] == lines[12] == "outer"
    assert lines[9] == "outer" and lines[10] == "outer.<locals>.inner"
    assert lines[16] == "Box" and lines[19] == lines[20] == "Box.grow"


def test_unreached_groups_each_units_consecutive_misses(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    lines = executable_lines(path)
    seen = {1, 2, 5, 6, 9, 12, 15, 16, 18}  # outer(0) ran; inner and grow never did
    assert unreached(lines, seen) == {
        "outer": [(7, 7)],
        "outer.<locals>.inner": [(10, 10)],
        "Box.grow": [(19, 20)],
    }
    assert unreached(lines, set(lines)) == {}
