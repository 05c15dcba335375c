"""Chat area: the simplest of the paper's three UI entities.

Headless model: an ordered transcript plus hooks to produce/consume
:class:`~repro.core.events.ChatEvent` objects.  Text is also the fallback
modality everything else degrades to, so the chat area doubles as the
renderer for ``text-share`` events (image descriptions, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.events import ChatEvent, TextShareEvent

__all__ = ["ChatArea", "ChatLine"]


@dataclass(frozen=True)
class ChatLine:
    """One rendered transcript line."""

    author: str
    text: str
    time: float


class ChatArea:
    """Ordered chat transcript for one client."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.lines: list[ChatLine] = []

    def compose(self, text: str) -> ChatEvent:
        """Create the event for a locally typed line (not yet rendered —
        the session echoes events back through the same path as remote
        ones so local/remote ordering is identical)."""
        return ChatEvent(author=self.owner, text=text)

    def on_chat(self, event: ChatEvent, time: float) -> ChatLine:
        """Render a chat event into the transcript."""
        line = ChatLine(author=event.author, text=event.text, time=time)
        self.lines.append(line)
        return line

    def on_text_share(self, event: TextShareEvent, time: float) -> ChatLine:
        """Render a degraded-modality text share (e.g. image description)."""
        line = ChatLine(author=f"[{event.ref_id}]", text=event.text, time=time)
        self.lines.append(line)
        return line

    @property
    def transcript(self) -> list[str]:
        """Plain-text transcript."""
        return [f"{l.author}: {l.text}" for l in self.lines]
