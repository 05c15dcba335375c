"""Concurrency control for shared objects.

"Concurrency Control is the process of arbitration and consistency
maintenance when multiple clients concurrently manipulate the same set of
shared objects ... If two users select information for sharing at the
same time, concurrency control comes into play and ensures that no
information is lost" (paper Sec. 2).

Two mechanisms, composable:

* :class:`Arbiter` — deterministic last-writer-wins merge on top of the
  state repository, with a *conflict history* so losing updates are kept,
  not lost;
* :class:`LockManager` — cooperative object locks (the whiteboard uses
  these for stroke-in-progress exclusivity), granted in request order
  with deterministic tie-breaking and revocation on leave.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .state import StateEntry, StateRepository

__all__ = ["Conflict", "Arbiter", "LockManager", "LockError"]

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

    def conflicts_for(self, key: str) -> list[Conflict]:
        """All recorded collisions on one object."""
        return [c for c in self.conflicts if c.key == key]


class LockError(RuntimeError):
    """Raised on invalid lock operations (double release etc.)."""


class LockManager:
    """Cooperative per-object locks with FIFO waiting.

    Lock identity is the object key; owners are client ids.  ``acquire``
    returns True immediately when free, otherwise queues the requester;
    ``release`` hands the lock to the next waiter and returns its id so
    the session layer can notify it.
    """

    def __init__(self) -> None:
        self._owners: dict[str, str] = {}
        self._waiters: dict[str, deque[str]] = {}

    def acquire(self, key: str, client_id: str) -> bool:
        """Try to take the lock; False means queued behind the owner."""
        owner = self._owners.get(key)
        if owner is None:
            self._owners[key] = client_id
            return True
        if owner == client_id:
            return True  # re-entrant
        queue = self._waiters.setdefault(key, deque())
        if client_id not in queue:
            queue.append(client_id)
        return False

    def release(self, key: str, client_id: str) -> Optional[str]:
        """Release; returns the next owner's id, if any."""
        if self._owners.get(key) != client_id:
            raise LockError(f"{client_id} does not hold lock {key!r}")
        queue = self._waiters.get(key)
        if queue:
            nxt = queue.popleft()
            self._owners[key] = nxt
            if not queue:
                del self._waiters[key]
            return nxt
        del self._owners[key]
        return None

    def owner(self, key: str) -> Optional[str]:
        return self._owners.get(key)

    def drop_client(self, client_id: str) -> list[tuple[str, Optional[str]]]:
        """Client left: release its locks, purge its queue entries.

        Returns ``(key, new_owner)`` for every lock that changed hands.
        """
        changed: list[tuple[str, Optional[str]]] = []
        for key, queue in list(self._waiters.items()):
            try:
                queue.remove(client_id)
            except ValueError:
                pass
            if not queue:
                del self._waiters[key]
        for key, owner in list(self._owners.items()):
            if owner == client_id:
                nxt = self.release(key, client_id)
                changed.append((key, nxt))
        return changed
