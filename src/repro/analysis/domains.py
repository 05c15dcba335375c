"""Interval/set abstract domain over selector attribute values.

A profile attribute lives in one of five *sorts*: missing, boolean,
number, string, or list.  Every atomic selector predicate is true only
inside a describable region of that space (``x < 5`` — numbers below 5;
``x contains 'jpeg'`` — lists containing ``'jpeg'``; ``exists(x)`` —
anything but missing), and its negation is the complement.  The analyzer
therefore represents the set of values an attribute may take inside one
DNF clause as an :class:`AttrDomain`: a union of per-sort constraints —

* ``missing`` — whether absence is still allowed;
* ``bools`` — the allowed subset of ``{True, False}``;
* ``num`` / ``strs`` — a :class:`Band`: either a finite pin-set or an
  interval with open/closed bounds, minus a finite exclusion set;
* ``lst`` — must-contain / must-not-contain element sets.

Soundness contract: :meth:`AttrDomain.is_empty` returning ``True`` is a
*proof* of emptiness (used for UNSAT verdicts); :meth:`AttrDomain.sample`
is best-effort (samples are re-verified against the original selector
before a SAT verdict is claimed, so an unlucky sample degrades the
verdict to UNKNOWN, never to a wrong answer).  For numbers over the
reals the emptiness test is also complete; for strings it is not (e.g.
the open interval ``('a', 'a\\x00')`` is empty but not provably so here).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from ..core.attributes import MISSING

__all__ = ["Band", "ListBand", "AttrDomain", "NUM", "STR"]

NUM = "num"
STR = "str"

_Scalar = Union[int, float, str]


@dataclass(frozen=True)
class Band:
    """One ordered sort's allowed region: pin-set *or* interval − exclusions.

    ``pinned`` non-``None`` means the region is exactly that finite set
    (interval fields are then ignored).  Bounds of ``None`` are
    unbounded.  ``kind`` is :data:`NUM` or :data:`STR` and fixes which
    literals the band accepts.
    """

    kind: str
    pinned: Optional[frozenset] = None
    lo: Optional[_Scalar] = None
    lo_strict: bool = False
    hi: Optional[_Scalar] = None
    hi_strict: bool = False
    excluded: frozenset = frozenset()
    dead: bool = False

    # -- membership (exact) --------------------------------------------
    def contains(self, v: _Scalar) -> bool:
        if self.dead:
            return False
        if self.pinned is not None:
            return v in self.pinned
        if v in self.excluded:
            return False
        if self.lo is not None and (v < self.lo or (v == self.lo and self.lo_strict)):
            return False
        if self.hi is not None and (v > self.hi or (v == self.hi and self.hi_strict)):
            return False
        return True

    # -- constraint application ----------------------------------------
    def kill(self) -> "Band":
        return replace(self, dead=True)

    def pin(self, values: frozenset) -> "Band":
        """Intersect with a finite value set."""
        if self.dead:
            return self
        kept = frozenset(v for v in values if self.contains(v))
        return Band(self.kind, pinned=kept, dead=not kept)

    def exclude(self, v: _Scalar) -> "Band":
        if self.dead:
            return self
        if self.pinned is not None:
            kept = self.pinned - {v}
            return replace(self, pinned=kept, dead=not kept)
        return replace(self, excluded=self.excluded | {v})

    def restrict(self, op: str, bound: _Scalar) -> "Band":
        """Intersect with ``{value : value <op> bound}``."""
        if self.dead:
            return self
        if self.pinned is not None:
            kept = frozenset(v for v in self.pinned if _cmp(v, op, bound))
            return replace(self, pinned=kept, dead=not kept)
        lo, lo_s, hi, hi_s = self.lo, self.lo_strict, self.hi, self.hi_strict
        if op in ("<", "<="):
            strict = op == "<"
            if hi is None or bound < hi or (bound == hi and strict and not hi_s):
                hi, hi_s = bound, strict
            elif bound == hi:
                hi_s = hi_s or strict
        elif op in (">", ">="):
            strict = op == ">"
            if lo is None or bound > lo or (bound == lo and strict and not lo_s):
                lo, lo_s = bound, strict
            elif bound == lo:
                lo_s = lo_s or strict
        else:  # pragma: no cover - callers pass ordered ops only
            raise ValueError(f"not an ordered op: {op!r}")
        out = replace(self, lo=lo, lo_strict=lo_s, hi=hi, hi_strict=hi_s)
        return replace(out, dead=out.provably_empty())

    # -- emptiness (sound; complete for numbers) ------------------------
    def provably_empty(self) -> bool:
        if self.dead:
            return True
        if self.pinned is not None:
            return not self.pinned
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                return True
            if self.lo == self.hi:
                if self.lo_strict or self.hi_strict:
                    return True
                return self.lo in self.excluded
        return False

    # -- witness extraction (best-effort) --------------------------------
    def sample(self) -> Optional[_Scalar]:
        if self.provably_empty():
            return None
        if self.pinned is not None:
            return min(self.pinned, key=repr) if self.kind == STR else min(self.pinned)
        candidates: list[_Scalar] = []
        if self.lo is not None and not self.lo_strict:
            candidates.append(self.lo)
        if self.hi is not None and not self.hi_strict:
            candidates.append(self.hi)
        if self.kind == NUM:
            candidates.extend(self._num_interior())
        else:
            candidates.extend(self._str_interior())
        for c in candidates:
            if self.contains(c):
                return c
        return None

    def _num_interior(self) -> list[float]:
        lo = self.lo if self.lo is not None else None
        hi = self.hi if self.hi is not None else None
        if lo is None and hi is None:
            base, span = 0.0, 1.0
        elif lo is None:
            base, span = float(hi) - 1.0, 1.0  # type: ignore[arg-type]
        elif hi is None:
            base, span = float(lo) + 1.0, 1.0
        else:
            base, span = (float(lo) + float(hi)) / 2.0, (float(hi) - float(lo)) / 4.0 or 0.5
        out = [base]
        # dodge the finite exclusion set by walking irrational-ish steps
        step = span / 7.919
        for k in range(1, len(self.excluded) + 3):
            out.append(base + k * step)
            out.append(base - k * step)
        return out

    def _str_interior(self) -> list[str]:
        lo = self.lo if isinstance(self.lo, str) else ""
        out = [lo + "m", lo + "m0", lo + "\x01", lo + "~"]
        if isinstance(self.hi, str) and self.hi:
            out.append(self.hi[: max(len(self.hi) - 1, 0)])
        for k in range(len(self.excluded) + 2):
            out.append(lo + "m" * (k + 2))
        return out


@dataclass(frozen=True)
class ListBand:
    """Allowed list values: element must/must-not constraints."""

    alive: bool = True
    must_contain: frozenset = frozenset()
    must_not_contain: frozenset = frozenset()

    def require(self, v: _Scalar) -> "ListBand":
        if v in self.must_not_contain:
            return replace(self, alive=False)
        return replace(self, must_contain=self.must_contain | {v})

    def forbid(self, v: _Scalar) -> "ListBand":
        if v in self.must_contain:
            return replace(self, alive=False)
        return replace(self, must_not_contain=self.must_not_contain | {v})

    def kill(self) -> "ListBand":
        return replace(self, alive=False)

    def provably_empty(self) -> bool:
        return not self.alive or bool(self.must_contain & self.must_not_contain)

    def sample(self) -> Optional[list]:
        if self.provably_empty():
            return None
        return sorted(self.must_contain, key=repr)


def _cmp(a: _Scalar, op: str, b: _Scalar) -> bool:
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


@dataclass(frozen=True)
class AttrDomain:
    """Everything one attribute may still be inside one DNF clause."""

    missing: bool = True
    bools: frozenset = frozenset({True, False})
    num: Band = field(default_factory=lambda: Band(NUM))
    strs: Band = field(default_factory=lambda: Band(STR))
    lst: ListBand = field(default_factory=ListBand)

    # -- sort-level surgery ----------------------------------------------
    def only(self, sort: str) -> "AttrDomain":
        """Keep just ``sort`` (kills missing too): used by positive atoms
        whose truth region lives in a single sort."""
        return AttrDomain(
            missing=False,
            bools=self.bools if sort == "bool" else frozenset(),
            num=self.num if sort == NUM else self.num.kill(),
            strs=self.strs if sort == STR else self.strs.kill(),
            lst=self.lst if sort == "list" else self.lst.kill(),
        )

    def without_missing(self) -> "AttrDomain":
        return replace(self, missing=False)

    def only_missing(self) -> "AttrDomain":
        return AttrDomain(
            missing=self.missing,
            bools=frozenset(),
            num=self.num.kill(),
            strs=self.strs.kill(),
            lst=self.lst.kill(),
        )

    # -- verdict helpers --------------------------------------------------
    def is_empty(self) -> bool:
        """Sound emptiness proof (see module docstring)."""
        return (
            not self.missing
            and not self.bools
            and self.num.provably_empty()
            and self.strs.provably_empty()
            and self.lst.provably_empty()
        )

    def sample(self) -> object:
        """A member of the region: a scalar/list value, or
        :data:`~repro.core.attributes.MISSING` to omit the attribute, or
        ``None`` when construction failed (caller degrades to UNKNOWN)."""
        if self.missing:
            return MISSING
        # a pin survives in a band another atom killed: only a live one counts
        if self.num.pinned and not self.num.dead:
            return self.num.sample()
        if self.strs.pinned and not self.strs.dead:
            return self.strs.sample()
        if not self.num.provably_empty():
            v = self.num.sample()
            if v is not None:
                return v
        if not self.strs.provably_empty():
            v = self.strs.sample()
            if v is not None:
                return v
        if self.bools:
            return True in self.bools
        if not self.lst.provably_empty():
            return self.lst.sample()
        return None
