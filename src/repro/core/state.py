"""Client state repository.

"[The application interface] monitors all local objects that may be of
interest to the client and encodes their state as entries in the client's
state repository.  Similarly, when a remote instance of the object
changes state, the change is received by the communication module and
forwarded to the application interface, which in turn updates the
client's session" (paper Sec. 4.1).

Entries are versioned and timestamped so the concurrency-control layer
can arbitrate concurrent remote updates deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional

__all__ = ["StateEntry", "StateRepository"]


@dataclass(frozen=True)
class StateEntry:
    """One versioned object state."""

    key: str
    value: Any
    version: int
    timestamp: float
    author: str


class StateRepository:
    """Versioned key→state store.

    >>> repo = StateRepository()
    >>> _ = repo.put("wb/stroke-1", [1.0, 2.0], timestamp=0.1, author="a")
    >>> repo.get("wb/stroke-1").version
    1
    """

    def __init__(self) -> None:
        self._entries: dict[str, StateEntry] = {}
        self.updates_applied = 0
        self.updates_rejected = 0

    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, timestamp: float, author: str) -> StateEntry:
        """Local update: bumps the version unconditionally."""
        old = self._entries.get(key)
        entry = StateEntry(
            key=key,
            value=value,
            version=(old.version + 1) if old else 1,
            timestamp=timestamp,
            author=author,
        )
        self._entries[key] = entry
        self.updates_applied += 1
        return entry

    def apply_remote(self, entry: StateEntry) -> bool:
        """Merge a remote entry; returns whether it won arbitration.

        Arbitration is deterministic last-writer-wins: higher version,
        then later timestamp, then lexicographically larger author id.
        The losing update is *not* discarded silently — callers receive
        ``False`` and can archive it (the paper's "no information is
        lost" requirement is handled by the concurrency layer's history).
        """
        old = self._entries.get(key := entry.key)
        if old is not None:
            winner = max(
                (old, entry),
                key=lambda e: (e.version, e.timestamp, e.author),
            )
            if winner is old:
                self.updates_rejected += 1
                return False
        self._entries[key] = entry
        self.updates_applied += 1
        return True

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[StateEntry]:
        return self._entries.get(key)

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def __iter__(self) -> Iterator[StateEntry]:
        for k in self.keys():
            yield self._entries[k]
