"""Shared experiment harness: run, collect, and format figure series.

Each ``figN`` module produces an :class:`ExperimentResult` — an ordered
table of rows plus the paper's reported shape for EXPERIMENTS.md — and a
``main()`` that prints it.  Benchmarks re-run the same entry points and
assert the shape invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """One reproduced figure/table."""

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append a row; unknown columns are rejected to catch typos."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}; declared {self.columns}")
        self.rows.append(values)

    def note(self, text: str) -> None:
        """Attach a free-form observation (printed under the table)."""
        self.notes.append(text)

    # ------------------------------------------------------------------
    def format_table(self, float_fmt: str = "{:.2f}") -> str:
        """Render as a fixed-width text table (the bench output)."""
        def fmt(v: Any) -> str:
            if v is None:
                return "-"
            if isinstance(v, bool):
                return str(v)
            if isinstance(v, float):
                if v != v:  # nan
                    return "-"
                if v in (float("inf"), float("-inf")):
                    return "inf" if v > 0 else "-inf"
                return float_fmt.format(v)
            return str(v)

        header = list(self.columns)
        body = [[fmt(row.get(c)) for c in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)
