"""Concurrency control for shared objects.

"Concurrency Control is the process of arbitration and consistency
maintenance when multiple clients concurrently manipulate the same set of
shared objects ... If two users select information for sharing at the
same time, concurrency control comes into play and ensures that no
information is lost" (paper Sec. 2).

:class:`Arbiter` is that arbitration: a deterministic last-writer-wins
merge on top of the state repository, with a *conflict history* so
losing updates are kept, not lost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .state import StateEntry, StateRepository

__all__ = ["Conflict", "Arbiter"]

#: Conflict records an :class:`Arbiter` keeps before evicting the oldest.
MAX_CONFLICTS = 4096


@dataclass(frozen=True)
class Conflict:
    """A concurrent-update collision record (nothing is lost)."""

    key: str
    winner: StateEntry
    loser: StateEntry


class Arbiter:
    """LWW arbitration with bounded conflict retention.

    The conflict history is a :class:`~collections.deque` capped at
    :data:`MAX_CONFLICTS` (generous) so a chatty session cannot
    grow it without bound; "nothing is lost" is preserved accountably —
    when the cap evicts the oldest record, :attr:`conflicts_dropped`
    counts it, so ``len(conflicts) + conflicts_dropped`` is always the
    true collision total.

    >>> repo = StateRepository(); arb = Arbiter(repo)
    >>> a = StateEntry("obj", "from-a", 1, 1.0, "alice")
    >>> b = StateEntry("obj", "from-b", 1, 1.0, "bob")
    >>> arb.submit(a); arb.submit(b)
    True
    True
    >>> repo.get("obj").value   # bob wins the author tie-break
    'from-b'
    >>> arb.conflicts[0].loser.value
    'from-a'
    """

    def __init__(self, repository: StateRepository) -> None:
        self.repository = repository
        self.conflicts: deque[Conflict] = deque(maxlen=MAX_CONFLICTS)
        self.conflicts_dropped = 0  #: records evicted by the cap

    def submit(self, entry: StateEntry) -> bool:
        """Offer an update; returns True if it is now current.

        Either way the displaced/losing entry is archived in
        :attr:`conflicts` when a real collision (same version) occurred.
        """
        current = self.repository.get(entry.key)
        applied = self.repository.apply_remote(entry)
        if current is not None and current.version == entry.version:
            winner = self.repository.get(entry.key)
            loser = entry if not applied else current
            assert winner is not None
            if len(self.conflicts) == self.conflicts.maxlen:
                self.conflicts_dropped += 1
            self.conflicts.append(Conflict(entry.key, winner, loser))
        return applied

    @property
    def total_conflicts(self) -> int:
        """Every collision ever recorded, including evicted ones."""
        return len(self.conflicts) + self.conflicts_dropped
