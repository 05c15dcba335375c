"""CLI: regenerate every paper figure in one run.

Usage::

    python -m repro.experiments            # all figures
    python -m repro.experiments fig6 fig10 # a subset
"""

from __future__ import annotations

import sys

from .chaos import run_chaos
from .fig6 import run_fig6
from .fig7 import run_fig7
from .fig8 import run_fig8, run_fig8_dataflow
from .fig9 import run_fig9, run_fig9_scaling
from .fig10 import run_fig10
from .multicast_scale import run_multicast_scale

_RUNNERS = {
    "fig6": lambda: [run_fig6()],
    "fig7": lambda: [run_fig7()],
    "fig8": lambda: [run_fig8(), run_fig8_dataflow()],
    "fig9": lambda: [run_fig9(), run_fig9_scaling()],
    "fig10": lambda: [run_fig10()],
    "chaos": lambda: [run_chaos()],
    "multicast": lambda: [run_multicast_scale()],
}


def main(argv: list[str]) -> int:
    wanted = argv or list(_RUNNERS)
    unknown = [w for w in wanted if w not in _RUNNERS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"choose from {', '.join(_RUNNERS)}", file=sys.stderr)
        return 2
    for name in wanted:
        for result in _RUNNERS[name]():
            print(result.format_table())
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
