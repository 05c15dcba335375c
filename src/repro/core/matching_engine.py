"""Indexed semantic matching: compiled-selector cache + predicate index.

The paper's receiver-side semantics interpret every published selector
against every profile.  A naive bus therefore pays
``O(subscribers × selector-size)`` per publish — re-lexing the selector
string and re-walking every profile.  S-ToPSS-style content-based
pub/sub practice shows both costs are avoidable:

* :func:`compile_selector` — routes through the LRU-cached
  :func:`~repro.core.selectors.parse`, so each distinct selector *string*
  is lexed/parsed exactly once per process, for profiles and messages alike;
* :class:`ProfileIndex` — inverted indexes over subscriber profile
  attributes (equality hash, sorted lists for ordered comparisons, an
  existence set, a list-membership index);
* :class:`MatchingEngine` — decomposes a conjunctive selector into
  (attribute, op, value) predicates (:func:`repro.core.selectors.decompose`)
  and runs a *counting* shortlist: a subscriber is a candidate iff it
  satisfies every indexed predicate.  Full :func:`~repro.core.matching.interpret`
  (including transformation-mediated accept) then runs only on the
  shortlist.  Selectors the index cannot serve (disjunctions, negations)
  fall back to a linear scan, so decisions are always identical to the
  unindexed path.

Index maintenance is incremental: subscribers are (re)indexed on attach,
removed on detach, and re-indexed when their profile notifies a change
(:meth:`repro.core.profiles.ClientProfile.watch`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

from .attributes import AttributeValue
from .profiles import ClientProfile
from .selectors import Predicate, Selector, parse

__all__ = [
    "compile_selector",
    "selector_cache_info",
    "ProfileIndex",
    "MatchingEngine",
    "Shortlist",
]


# ----------------------------------------------------------------------
# compiled-selector cache
# ----------------------------------------------------------------------
def compile_selector(text: str | Selector) -> Selector:
    """Compile ``text`` through the process-wide LRU cache of :func:`parse`.

    Passing an already-compiled :class:`Selector` returns it unchanged,
    so callers can accept either form.
    """
    if isinstance(text, Selector):
        return text
    return parse(text)


def selector_cache_info() -> dict[str, int]:
    """Counters of the process-wide selector cache (observability)."""
    info = parse.cache_info()
    return {
        "size": info.currsize,
        "maxsize": info.maxsize or 0,
        "hits": info.hits,
        "misses": info.misses,
    }


# ----------------------------------------------------------------------
# predicate index over profiles
# ----------------------------------------------------------------------
def _canon(value: Any) -> Optional[tuple[str, Any]]:
    """Hashable canonical form matching :func:`values_equal` semantics.

    Numbers collapse cross-type (``1 == 1.0``) but booleans stay a
    distinct domain (``True != 1``); anything unhashable returns ``None``
    and is simply not equality-indexed.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        if value != value:  # NaN equals nothing under values_equal
            return None
        return ("num", float(value))
    if isinstance(value, str):
        return ("str", value)
    return None


@dataclass
class _SortedColumn:
    """One attribute's ordered values: parallel sorted arrays."""

    values: list[Any] = field(default_factory=list)
    keys: list[list[Hashable]] = field(default_factory=list)

    def add(self, value: Any, key: Hashable) -> None:
        i = bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            self.keys[i].append(key)
        else:
            self.values.insert(i, value)
            self.keys.insert(i, [key])

    def discard(self, value: Any, key: Hashable) -> None:
        i = bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            bucket = self.keys[i]
            if key in bucket:
                bucket.remove(key)
            if not bucket:
                del self.values[i]
                del self.keys[i]

    def range(self, op: str, bound: Any) -> list[Hashable]:
        """Keys whose value satisfies ``value <op-inverse> bound``."""
        if op == "<":
            hi = bisect_left(self.values, bound)
            buckets = self.keys[:hi]
        elif op == "<=":
            hi = bisect_right(self.values, bound)
            buckets = self.keys[:hi]
        elif op == ">":
            lo = bisect_right(self.values, bound)
            buckets = self.keys[lo:]
        elif op == ">=":
            lo = bisect_left(self.values, bound)
            buckets = self.keys[lo:]
        else:  # pragma: no cover - guarded by callers
            raise ValueError(f"not an ordered op: {op!r}")
        out: list[Hashable] = []
        for bucket in buckets:
            out.extend(bucket)
        return out


class ProfileIndex:
    """Inverted indexes over a set of keyed profile snapshots.

    Keys are opaque hashables (the bus uses its ``Subscription``
    objects).  The index answers, for one :class:`Predicate`, *which
    keys' profiles satisfy it* — exactly, per the selector language's
    typed comparison semantics.
    """

    def __init__(self) -> None:
        # attr -> canonical value -> set of keys
        self._eq: dict[str, dict[tuple[str, Any], set[Hashable]]] = {}
        # attr -> canonical element -> set of keys (list-valued attrs)
        self._contains: dict[str, dict[tuple[str, Any], set[Hashable]]] = {}
        # attr -> set of keys that have the attribute at all
        self._exists: dict[str, set[Hashable]] = {}
        # attr -> sorted numeric / string columns
        self._num: dict[str, _SortedColumn] = {}
        self._str: dict[str, _SortedColumn] = {}
        # key -> snapshot used at indexing time (for exact removal)
        self._snapshots: dict[Hashable, dict[str, AttributeValue]] = {}

    def __len__(self) -> int:
        return len(self._snapshots)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._snapshots

    @property
    def keys(self) -> set[Hashable]:
        return set(self._snapshots)

    # -- maintenance ---------------------------------------------------
    def add(self, key: Hashable, snapshot: dict[str, AttributeValue]) -> None:
        """Index ``key`` under ``snapshot``; re-indexes if already present."""
        if key in self._snapshots:
            self.remove(key)
        self._snapshots[key] = dict(snapshot)
        for attr, value in snapshot.items():
            self._exists.setdefault(attr, set()).add(key)
            if isinstance(value, (list, tuple)):
                col = self._contains.setdefault(attr, {})
                for item in value:
                    c = _canon(item)
                    if c is not None:
                        col.setdefault(c, set()).add(key)
                continue
            c = _canon(value)
            if c is not None:
                self._eq.setdefault(attr, {}).setdefault(c, set()).add(key)
            if isinstance(value, bool):
                continue  # bools never satisfy ordered comparisons
            if isinstance(value, (int, float)):
                if value == value:  # NaN never satisfies ordered comparisons
                    self._num.setdefault(attr, _SortedColumn()).add(value, key)
            elif isinstance(value, str):
                self._str.setdefault(attr, _SortedColumn()).add(value, key)

    def remove(self, key: Hashable) -> None:
        """Drop ``key`` from every index.  Idempotent."""
        snapshot = self._snapshots.pop(key, None)
        if snapshot is None:
            return
        for attr, value in snapshot.items():
            keys = self._exists.get(attr)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._exists[attr]
            if isinstance(value, (list, tuple)):
                col = self._contains.get(attr)
                if col is not None:
                    for item in value:
                        c = _canon(item)
                        if c is not None and c in col:
                            col[c].discard(key)
                            if not col[c]:
                                del col[c]
                    if not col:
                        del self._contains[attr]
                continue
            c = _canon(value)
            if c is not None:
                eq = self._eq.get(attr)
                if eq is not None and c in eq:
                    eq[c].discard(key)
                    if not eq[c]:
                        del eq[c]
                    if not eq:
                        del self._eq[attr]
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                col2 = self._num.get(attr)
                if col2 is not None and value == value:
                    col2.discard(value, key)
            elif isinstance(value, str):
                col2 = self._str.get(attr)
                if col2 is not None:
                    col2.discard(value, key)

    def attributes(self) -> set[str]:
        """Attribute names present on at least one indexed snapshot."""
        return {attr for attr, keys in self._exists.items() if keys}

    # -- query ---------------------------------------------------------
    def satisfying(self, pred: Predicate) -> set[Hashable]:
        """All keys whose indexed snapshot satisfies ``pred``."""
        if pred.op == "never":
            return set()
        if pred.op == "exists":
            return set(self._exists.get(pred.attribute, ()))
        if pred.op == "==":
            c = _canon(pred.value)
            if c is None:
                return set()
            return set(self._eq.get(pred.attribute, {}).get(c, ()))
        if pred.op == "in":
            eq = self._eq.get(pred.attribute, {})
            out: set[Hashable] = set()
            for v in pred.value:
                c = _canon(v)
                if c is not None:
                    out |= eq.get(c, set())
            return out
        if pred.op == "contains":
            c = _canon(pred.value)
            if c is None:
                return set()
            return set(self._contains.get(pred.attribute, {}).get(c, ()))
        # ordered: numeric literals probe the numeric column, string
        # literals the string column (the language never mixes them)
        if isinstance(pred.value, (int, float)) and not isinstance(pred.value, bool):
            col = self._num.get(pred.attribute)
        else:
            col = self._str.get(pred.attribute)
        bound = pred.value
        if col is None:
            return set()
        return set(col.range(pred.op, bound))


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shortlist:
    """Outcome of the candidate-selection stage for one publish.

    ``keys`` is ``None`` when the selector was not indexable and the
    caller must consider every subscriber (linear fallback).
    """

    keys: Optional[set[Hashable]]
    via_index: bool

    @property
    def linear(self) -> bool:
        return self.keys is None


class MatchingEngine:
    """Maintains the predicate index over attached subscribers and
    shortlists candidates for each published selector.

    The engine never *decides* delivery — it only narrows which profiles
    the full interpreter must look at.  That keeps its answers allowed to
    be (sound) over-approximations and the bus's decisions bit-identical
    to a linear scan.
    """

    def __init__(self) -> None:
        self._index = ProfileIndex()
        self._profiles: dict[Hashable, ClientProfile] = {}
        self._unwatch: dict[Hashable, Any] = {}
        self._dirty: set[Hashable] = set()
        # observability
        self.indexed_publishes = 0
        self.linear_publishes = 0
        self.reindexes = 0

    def __len__(self) -> int:
        return len(self._profiles)

    # -- membership ----------------------------------------------------
    def add(self, key: Hashable, profile: ClientProfile) -> None:
        """Start indexing ``profile`` under ``key`` (re-adds re-index)."""
        if key in self._profiles:
            self.remove(key)
        self._profiles[key] = profile
        self._index.add(key, profile.snapshot())
        self._unwatch[key] = profile.watch(lambda _p, k=key: self._dirty.add(k))

    def remove(self, key: Hashable) -> None:
        """Stop indexing ``key``.  Idempotent."""
        profile = self._profiles.pop(key, None)
        if profile is None:
            return
        unwatch = self._unwatch.pop(key, None)
        if unwatch is not None:
            unwatch()
        self._dirty.discard(key)
        self._index.remove(key)

    def _flush_dirty(self) -> None:
        while self._dirty:
            key = self._dirty.pop()
            profile = self._profiles.get(key)
            if profile is not None:
                self._index.add(key, profile.snapshot())
                self.reindexes += 1

    def flush(self) -> None:
        """Re-index every profile that notified a change since the last
        query.  Shortlists flush implicitly; callers that consult
        :meth:`attribute_universe` *without* shortlisting (the sharded
        broker's skip test) call this first."""
        self._flush_dirty()

    def attribute_universe(self) -> set[str]:
        """Attribute names carried by at least one indexed profile.

        A selector whose :func:`~repro.core.selectors.required_attributes`
        are not all present here cannot match any profile this engine
        indexes — sound only against the flushed index (see
        :meth:`flush`).
        """
        return self._index.attributes()

    # -- shortlisting --------------------------------------------------
    def shortlist(self, selector: Selector | str) -> Shortlist:
        """Candidate keys for ``selector``.

        Uses the counting algorithm: every indexed predicate enumerates
        the keys satisfying it; a key is a candidate iff its count equals
        the number of predicates.  Non-indexable selectors return a
        linear-fallback shortlist.
        """
        sel = compile_selector(selector)
        self._flush_dirty()
        plan = sel.conjunctive_plan()
        if plan is None:
            self.linear_publishes += 1
            return Shortlist(None, False)
        preds = [p for p in plan if p.op != "never"]
        if len(preds) != len(plan):  # a constant-false conjunct
            self.indexed_publishes += 1
            return Shortlist(set(), True)
        if not preds:  # broadcast: no indexable constraint
            self.linear_publishes += 1
            return Shortlist(None, False)
        counts: dict[Hashable, int] = {}
        for pred in preds:
            keys = self._index.satisfying(pred)
            if not keys:
                self.indexed_publishes += 1
                return Shortlist(set(), True)
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
        need = len(preds)
        self.indexed_publishes += 1
        return Shortlist({k for k, c in counts.items() if c == need}, True)

    def shortlist_many(self, selectors: "list[Selector | str]") -> list[Shortlist]:
        """Shortlists for a batch of selectors, amortizing shared work.

        Dirty profiles are flushed once for the whole batch, and each
        *distinct* selector is shortlisted exactly once — the batch
        publish path hands every message's selector in and repeated
        selectors (the common case in a message burst) cost one index
        probe, not one per message.
        """
        self._flush_dirty()
        memo: dict[str, Shortlist] = {}
        out: list[Shortlist] = []
        for selector in selectors:
            sel = compile_selector(selector)
            got = memo.get(sel.text)
            if got is None:
                got = memo[sel.text] = self.shortlist(sel)
            out.append(got)
        return out
