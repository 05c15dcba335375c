"""Whiteboard: shared vector objects with concurrency control.

Each stroke/shape is a shared object in the client's state repository;
concurrent manipulation goes through the
:class:`~repro.core.concurrency.Arbiter` (no information lost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.concurrency import Arbiter
from ..core.events import WhiteboardEvent
from ..core.state import StateEntry, StateRepository

__all__ = ["Whiteboard"]


class Whiteboard:
    """One client's replica of the shared drawing surface."""

    def __init__(self, owner: str, repository: Optional[StateRepository] = None) -> None:
        self.owner = owner
        self.repository = repository if repository is not None else StateRepository()
        self.arbiter = Arbiter(self.repository)

    # ------------------------------------------------------------------
    # local operations → events
    # ------------------------------------------------------------------
    def draw(self, object_id: str, points: tuple[float, ...], time: float) -> WhiteboardEvent:
        """Draw/replace a stroke locally and emit the event for peers.

        The event carries the origin version and timestamp so every
        replica arbitrates the identical triple.
        """
        entry = self.repository.put(
            f"wb/{object_id}", list(points), timestamp=time, author=self.owner
        )
        return WhiteboardEvent(
            object_id=object_id,
            op="draw",
            points=points,
            author=self.owner,
            version=entry.version,
            timestamp=entry.timestamp,
        )

    # ------------------------------------------------------------------
    # remote events → replica updates (through arbitration)
    # ------------------------------------------------------------------
    def on_event(self, event: WhiteboardEvent, time: float) -> bool:
        """Apply a remote whiteboard event; returns whether it won.

        Arbitration uses the *origin* (version, timestamp, author) carried
        in the event — never local arrival data — so concurrent edits
        converge to the same winner on every replica.
        """
        key = f"wb/{event.object_id}"
        value = None if event.op == "erase" else list(event.points)
        entry = StateEntry(
            key=key,
            value=value,
            version=event.version,
            timestamp=event.timestamp,
            author=event.author,
        )
        return self.arbiter.submit(entry)

    # ------------------------------------------------------------------
    def objects(self) -> dict[str, list[float]]:
        """Live objects (erased ones excluded)."""
        out = {}
        for entry in self.repository:
            if entry.key.startswith("wb/") and entry.value is not None:
                out[entry.key[3:]] = entry.value
        return out

    @property
    def conflicts(self) -> int:
        """Total concurrent-update collisions, including any the bounded
        history has evicted (the overflow counter keeps the tally exact)."""
        return self.arbiter.total_conflicts
