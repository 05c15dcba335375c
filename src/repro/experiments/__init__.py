"""Figure reproductions (FIG6–FIG10) and the shared experiment harness."""

from .harness import ExperimentResult
from .fig6 import run_fig6
from .fig7 import run_fig7
from .fig8 import run_fig8, run_fig8_dataflow
from .fig9 import run_fig9, run_fig9_scaling
from .fig10 import run_fig10, solve_join_geometry

__all__ = [
    "ExperimentResult",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig8_dataflow",
    "run_fig9",
    "run_fig9_scaling",
    "run_fig10",
    "solve_join_geometry",
]
