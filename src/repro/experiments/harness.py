"""Shared experiment harness: run, collect, and format figure series.

Each ``figN`` module produces an :class:`ExperimentResult` — an ordered
table of rows plus the paper's claims about it.  A claim is a
:class:`Claim`: the paper's statement and one predicate over the rows,
defined once in its figure module.  ``python -m repro.experiments``
prints each claim as ``holds`` or ``FAILS`` under its table, and the
tier-1 tests assert the same predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Claim", "ExperimentResult"]

Rows = list[dict[str, Any]]


@dataclass(frozen=True)
class Claim:
    """A paper claim about a figure and the predicate over its rows that
    checks it."""

    text: str
    holds: Callable[[Rows], bool]

    def line(self, rows: Rows) -> str:
        """The claim as the report prints it, with its verdict."""
        return f"{self.text}: {'holds' if self.holds(rows) else 'FAILS'}"


@dataclass
class ExperimentResult:
    """One reproduced figure/table."""

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: Rows = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append a row; unknown columns are rejected to catch typos."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}; declared {self.columns}")
        self.rows.append(values)

    def note(self, text: str) -> None:
        """Attach a free-form observation (printed under the claims)."""
        self.notes.append(text)

    # ------------------------------------------------------------------
    def format_table(self) -> str:
        """Render as a fixed-width text table, floats to two decimals."""
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
                return f"{v:.2f}"
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
        for text in [c.line(self.rows) for c in self.claims] + self.notes:
            lines.append(f"  note: {text}")
        return "\n".join(lines)
