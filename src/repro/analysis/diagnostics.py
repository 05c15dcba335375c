"""The structured diagnostic model shared by every analyzer pass.

Every check in :mod:`repro.analysis` reports through one shape — a
:class:`Diagnostic` with a *stable rule code*, a severity, a
human-readable message, and (when known) a source location — so the CLI,
the CI gate, and the on-demand lint calls all produce the same stream.

Rule codes are stable identifiers (``SEL001``, ``POL003``, ``LNT002``,
...): tools may filter on them, and inline suppressions name them.

Suppression
-----------
Two mechanisms, matching the two ways configs reach the analyzer:

* **Inline comments** for anything found in a source file::

      TRUE_SELECTOR = Selector("true")  # repro: ignore[SEL002]

  ``# repro: ignore[CODE,CODE2]`` suppresses those rule codes on that
  line; ``# repro: ignore`` (no bracket) suppresses every rule there.

* **Programmatic ignore sets** for in-memory configs: every analyzer
  entry point accepts ``ignore={"SEL002", ...}`` and the CLI exposes
  ``--ignore CODE``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterable, Mapping, Optional

#: the data path defines it beside ``WireError`` so that a dropped
#: datagram never loads this package
from ..messaging.serialization import DiagnosticWarning

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticWarning",
    "RULES",
    "rule_severity",
    "filter_diagnostics",
    "parse_suppressions",
    "max_severity",
]


class Severity(IntEnum):
    """Ordered severity; comparisons follow the integer order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None

    def __str__(self) -> str:
        return self.name.lower()


#: Stable rule registry: code -> (default severity, one-line description).
RULES: dict[str, tuple[Severity, str]] = {
    # -- selector analysis ------------------------------------------------
    "SEL001": (Severity.ERROR, "selector is unsatisfiable: it can never match any profile"),
    "SEL002": (Severity.WARNING, "selector is a tautology: it matches every profile (vacuous)"),
    "SEL003": (Severity.WARNING, "attribute used with conflicting types in one conjunction"),
    "SEL004": (Severity.INFO, "selector too complex for exact analysis; verdict unknown"),
    "SEL005": (Severity.INFO, "selector is subsumed by / equivalent to another selector"),
    "SEL006": (Severity.ERROR, "selector literal does not parse"),
    # -- policy & contract lint ------------------------------------------
    "POL001": (Severity.WARNING, "step-policy values are not monotone over the parameter"),
    "POL002": (Severity.WARNING, "step-policy band is redundant (same value as its neighbour)"),
    "POL003": (Severity.ERROR, "packet decision outside the paper's {0,1,2,4,8,16} set"),
    "POL004": (Severity.ERROR, "SIR tier thresholds collapse a tier (gap/overlap)"),
    "POL005": (Severity.ERROR, "QoS contract contradicts the policy database"),
    "POL006": (Severity.INFO, "contract constrains a parameter no policy produces or observes"),
    # -- profile / transform lint ----------------------------------------
    "PRO001": (Severity.WARNING, "transform rules form a cycle"),
    "PRO002": (Severity.WARNING, "transform rule can never help given the interest selector"),
    "PRO003": (Severity.WARNING, "transform rule is a no-op (from == to)"),
    # -- repo lint --------------------------------------------------------
    "LNT001": (Severity.ERROR, "bare `except:` in a dispatch path"),
    "LNT002": (Severity.ERROR, "mutable default argument"),
    "LNT003": (Severity.ERROR, "transport constructed directly instead of injected"),
    # -- dataflow: units ---------------------------------------------------
    "UNI001": (Severity.WARNING, "arithmetic or assignment mixes incompatible physical units"),
    "UNI002": (Severity.WARNING, "dB value passed where linear ratio expected (or vice versa)"),
    "UNI003": (Severity.WARNING, "rate-unit mismatch (bit/s vs kbit/s vs byte/s) without conversion"),
    "UNI004": (Severity.WARNING, "time-unit mismatch (s vs ms vs µs) without conversion"),
    "UNI005": (Severity.WARNING, "data-unit mismatch (bytes vs bits vs packets) without conversion"),
    # -- dataflow: exception flow -----------------------------------------
    "EXC001": (Severity.WARNING, "codec/wire error can escape a delivery callback across a dispatch boundary"),
    "EXC002": (Severity.WARNING, "scheduler callback can raise, aborting the event loop mid-run"),
    "EXC003": (Severity.WARNING, "handler silently swallows failures on a dispatch path"),
    # -- concurrency: lock order & shared-state races ---------------------
    "DLK001": (Severity.ERROR, "lock-order cycle in the whole-program acquisition graph (potential deadlock)"),
    "DLK002": (Severity.WARNING, "lock acquired while holding a different backend's lock (cross-boundary nesting; one callback re-entry away from a cycle)"),
    "DLK003": (Severity.WARNING, "field is lock-protected on some paths but written without the lock on another"),
    "RACE001": (Severity.ERROR, "field written from multiple thread roots with at least one unguarded write"),
    "RACE002": (Severity.WARNING, "unsynchronized lazy initialisation reachable without a lock (two threads can both construct)"),
    "RACE003": (Severity.WARNING, "non-atomic check-then-act on a shared container reachable without a lock"),
    # -- hot-path cost (interprocedural loop-cost propagation) ------------
    "PERF001": (Severity.WARNING, "population-sized scan or copy on a per-packet hot path (O(subscribers) work per message)"),
    "PERF004": (Severity.WARNING, "loop-invariant pure call or uncached selector re-parse on a hot path (hoist or route through the parse cache)"),
    # -- wire-format decode safety ----------------------------------------
    "WIRE002": (Severity.ERROR, "decoder reads past len(data) on truncated input without a bounds guard"),
}


def rule_severity(code: str, *, in_hot_scope: bool = True) -> Severity:
    """Default severity for ``code``; lint rules demote to WARNING
    outside their hot scope (e.g. bare except outside dispatch paths)."""
    sev, _ = RULES[code]
    if not in_hot_scope and sev is Severity.ERROR and code.startswith("LNT"):
        return Severity.WARNING
    return sev


@dataclass(frozen=True)
class Diagnostic:
    """One finding from any analyzer pass.

    ``subject`` names the analyzed object (a selector text, a policy
    name, a file-relative symbol); ``file``/``line``/``column`` locate it
    when the finding came from a source file (1-based line/column).
    """

    code: str
    severity: Severity
    message: str
    subject: str = ""
    file: Optional[str] = None
    line: Optional[int] = None
    column: Optional[int] = None

    def format(self) -> str:
        loc = ""
        if self.file is not None:
            loc = self.file
            if self.line is not None:
                loc += f":{self.line}"
                if self.column is not None:
                    loc += f":{self.column}"
            loc += ": "
        subj = f" [{self.subject}]" if self.subject else ""
        return f"{loc}{self.severity}: {self.code}: {self.message}{subj}"

    def at(self, file: Optional[str], line: Optional[int], column: Optional[int] = None) -> "Diagnostic":
        """Copy with a source location attached."""
        return replace(self, file=file, line=line, column=column)

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "subject": self.subject,
            "file": self.file,
            "line": self.line,
            "column": self.column,
        }


_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?")


def parse_suppressions(source: str) -> Mapping[int, frozenset[str]]:
    """Per-line inline suppressions in ``source``.

    Returns ``{line_number: codes}`` (1-based); an empty frozenset means
    *every* rule is suppressed on that line.
    """
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = frozenset()
        else:
            out[lineno] = frozenset(c.strip().upper() for c in codes.split(",") if c.strip())
    return out


def filter_diagnostics(
    diagnostics: Iterable[Diagnostic],
    *,
    ignore: Iterable[str] = (),
    suppressions: Optional[Mapping[int, frozenset[str]]] = None,
) -> list[Diagnostic]:
    """Drop diagnostics named by ``ignore`` or an inline suppression.

    ``suppressions`` maps line numbers of the *analyzed file* to code
    sets (see :func:`parse_suppressions`).
    """
    ignored = {c.strip().upper() for c in ignore}
    out: list[Diagnostic] = []
    for d in diagnostics:
        if d.code.upper() in ignored:
            continue
        if suppressions is not None and d.line is not None:
            codes = suppressions.get(d.line)
            if codes is not None and (not codes or d.code.upper() in codes):
                continue
        out.append(d)
    return out


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    """Highest severity present, or ``None`` for an empty stream."""
    worst: Optional[Severity] = None
    for d in diagnostics:
        if worst is None or d.severity > worst:
            worst = d.severity
    return worst
