"""Semantic messages: selector + headers + opaque body.

"Communications between the collaborating clients are ... state-based
multicast messages where a message is semantically enhanced to include a
sender-specified 'semantic-selector' in addition to the message body"
(paper Sec. 3).

``headers`` describe the *content* (media, encoding, modality, size) and
are what receiver interests / transform rules operate on; ``selector``
describes the *audience*.  The body is opaque bytes — image packets,
serialized events, text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..core.attributes import AttributeValue
from ..core.matching_engine import compile_selector
from ..core.selectors import Selector

__all__ = ["SemanticMessage", "MessageId", "next_message_id"]

_counter = itertools.count(1)


@dataclass(frozen=True, order=True, slots=True)
class MessageId:
    """Globally unique (within a run) message identity: (sender, seq)."""

    sender: str
    seq: int

    def __str__(self) -> str:
        return f"{self.sender}#{self.seq}"


def next_message_id(sender: str) -> MessageId:
    """Mint a fresh id; the shared counter keeps ids unique across senders."""
    return MessageId(sender, next(_counter))


@dataclass(frozen=True, slots=True)
class SemanticMessage:
    """One state-based multicast message.

    Attributes
    ----------
    msg_id:
        Identity for fragmentation/reassembly and dedup.
    selector:
        Audience expression, evaluated against receiver profiles.
    headers:
        Content attributes, evaluated against receiver interests.
    body:
        Opaque payload bytes.
    kind:
        Application event type (``"chat"``, ``"image-share"``,
        ``"whiteboard"``, ``"profile-update"``, ...); also exposed to
        selectors via an implicit ``kind`` header.
    sender:
        Diagnostic label of the producing client (never used for routing).
    """

    msg_id: MessageId
    selector: Selector
    headers: dict[str, AttributeValue]
    body: bytes = b""
    kind: str = "event"
    sender: str = ""

    def effective_headers(self) -> dict[str, AttributeValue]:
        """Headers plus the implicit ``kind`` attribute."""
        out = dict(self.headers)
        out.setdefault("kind", self.kind)
        return out

    @property
    def size(self) -> int:
        """Body size in bytes."""
        return len(self.body)

    @classmethod
    def create(
        cls,
        sender: str,
        selector: Selector | str,
        headers: Optional[dict[str, AttributeValue]] = None,
        body: bytes = b"",
        kind: str = "event",
    ) -> "SemanticMessage":
        """Convenience constructor minting a fresh id.

        Selector strings are compiled through the process-wide LRU cache
        (:func:`repro.core.matching_engine.compile_selector`), so a hot
        selector is lexed/parsed once, not once per message.
        """
        sel = compile_selector(selector)
        return cls(
            msg_id=next_message_id(sender),
            selector=sel,
            headers=dict(headers or {}),
            body=body,
            kind=kind,
            sender=sender,
        )
