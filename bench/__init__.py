"""The repo's layered benchmark (see bench/README.md).

Importing the package puts the tree's ``src/`` on ``sys.path`` so the
program under test is the checkout the benchmark sits in, never an
installed copy.
"""

import pathlib
import sys

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
