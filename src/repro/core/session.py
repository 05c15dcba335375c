"""Collaboration session: group formation, membership, archival.

"Clients with the similar objectives form a collaborating group ... Based
on the final objective and required results a member joins the
appropriate collaborating session" (paper Sec. 2).  The session object
carries the objective and result space (what the group can share), an
observer-only membership list learned from join/leave events (routing
never uses it), and an archive so "sessions can be archived to provide
late clients with session history" (Sec. 3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..messaging.message import MessageId, SemanticMessage

__all__ = ["SessionDescriptor", "SessionArchive", "Membership"]


@dataclass(frozen=True)
class SessionDescriptor:
    """Identity and purpose of one collaboration session.

    ``objective`` precision matters: "a more precise definition of
    collaboration objective results in higher satisfaction levels".
    ``result_space`` enumerates what sharing the session supports
    (``"chat"``, ``"whiteboard"``, ``"image"``, ...).
    """

    name: str
    objective: str
    result_space: tuple[str, ...] = ("chat", "whiteboard", "image")

    def selector_text(self, extra: str = "") -> str:
        """The audience expression targeting this session's members."""
        base = f"session == '{self.name}'"
        return f"{base} and ({extra})" if extra else base

    def supports(self, capability: str) -> bool:
        """Whether the session's result space covers a sharing kind."""
        return capability in self.result_space


class Membership:
    """Observer-side roster built from join/leave events.

    Purely diagnostic — the semantic substrate needs no roster — but the
    UI (and the experiments) want to display who is around.
    """

    def __init__(self) -> None:
        self._members: dict[str, float] = {}  # client_id -> join time
        self.joins = 0
        self.leaves = 0

    def join(self, client_id: str, time: float) -> None:
        if client_id not in self._members:
            self._members[client_id] = time
            self.joins += 1

    def leave(self, client_id: str) -> None:
        if client_id in self._members:
            del self._members[client_id]
            self.leaves += 1

    @property
    def members(self) -> list[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)


#: Messages a :class:`SessionArchive` keeps.
ARCHIVE_CAPACITY = 10_000


class SessionArchive:
    """Time-ordered record of session traffic for late joiners.

    Bounded: keeps the newest :data:`ARCHIVE_CAPACITY` messages (images
    dominate volume; a real deployment would spool to disk).  Holds each
    ``msg_id`` once: a set of the held ids, kept in step with the ring,
    answers in O(1) whether a message is new.
    """

    def __init__(self) -> None:
        self.capacity = ARCHIVE_CAPACITY
        self._entries: deque[tuple[float, SemanticMessage]] = deque()
        self._ids: set[MessageId] = set()
        self.archived = 0

    def record(self, time: float, message: SemanticMessage) -> bool:
        """Append a message whose id is not held; evicts the oldest beyond capacity.

        Returns False, recording nothing, for an id already held.
        """
        held = len(self._ids)
        self._ids.add(message.msg_id)
        if len(self._ids) == held:
            return False
        if len(self._entries) == self.capacity:
            self._ids.discard(self._entries.popleft()[1].msg_id)
        self._entries.append((time, message))
        self.archived += 1
        return True

    def replay(self, since: float = 0.0) -> list[tuple[float, SemanticMessage]]:
        """Messages recorded at or after ``since``, oldest first."""
        return [(t, m) for t, m in self._entries if t >= since]

    def __contains__(self, msg_id: object) -> bool:
        """Whether a message with this ``msg_id`` is held."""
        return msg_id in self._ids

    def __len__(self) -> int:
        return len(self._entries)
