"""event_fanout_wide / event_fanout_aged — smallest messages, widest fan-out.

Op = one chat line (two ops in three) or one whiteboard stroke from a
rotating sender, delivered to every other wired client.  The *wide*
variant runs 32 clients in fresh sessions; the *aged* variant runs 16
whose session archives were filled to capacity in set-up — the steady
state of a long session — so the same layers are measured with a
working set at the program's own bound.

A fresh session grows by ~50 kB an op at 32 clients, so the wide variant
starts a new one every 2 000 ops (see ``RenewedSessionWorkload``): every
archive stays far under its capacity.
"""

from __future__ import annotations

from repro.core.events import ChatEvent, WhiteboardEvent
from repro.core.framework import CollaborationFramework
from repro.messaging.message import SemanticMessage

from .base import (
    NETWORK_SEED,
    CheckResult,
    RenewedSessionWorkload,
    endpoint_totals,
    network_totals,
    selector_totals,
)

QUIESCE_S = 0.05
WORDS = (
    "triage", "north", "bridge", "ack", "moving", "casualty", "clear", "hold",
    "route", "sector", "medic", "eta", "five", "copy", "status", "image", "sent",
)
WHITEBOARD_OBJECTS = 16


class EventFanoutWide(RenewedSessionWorkload):
    name = "event_fanout_wide"
    clients_n = 32
    prefill_archives = False
    session_ops = 2000
    #: chat, chat, stroke
    mix_period = 3

    def open_session(self) -> None:
        self.fw = fw = CollaborationFramework(
            "bench-fanout", objective="event fan-out", seed=NETWORK_SEED
        )
        self.clients = [fw.add_wired_client(f"c{i:02d}") for i in range(self.clients_n)]
        for client in self.clients:
            client.join()
        fw.run_for(0.5)
        if self.prefill_archives:
            self._age_session()

    def _age_session(self) -> None:
        """Fill every archive to capacity through ``SessionArchive.record``."""
        selector = self.fw.session.selector_text()
        for client in self.clients:
            archive = client.archive
            for k in range(archive.capacity - len(archive)):
                event = ChatEvent(author="history", text=f"archived line {k}")
                archive.record(
                    0.0,
                    SemanticMessage.create(
                        sender="history",
                        selector=selector,
                        headers=event.headers(),
                        body=event.to_body(),
                        kind=event.kind,
                    ),
                )

    def close_session(self) -> None:
        for client in self.clients:
            client.close()
        del self.fw, self.clients, self.sender

    def op(self, index: int) -> None:
        rng = self.rng
        self.sender = sender = self.clients[index % len(self.clients)]
        self.seen_before = [len(c.events_received) for c in self.clients]
        self.issued_at = self.fw.now
        if index % 3 == 2:
            points = tuple(
                round(rng.uniform(0.0, 640.0), 1) for _ in range(2 * rng.randint(2, 8))
            )
            self.sent = ("whiteboard", f"obj-{rng.randrange(WHITEBOARD_OBJECTS)}", points)
            sender.draw(self.sent[1], points)
        else:
            text = " ".join(rng.choice(WORDS) for _ in range(rng.randint(2, 12)))
            self.sent = ("chat", text)
            sender.send_chat(text)
        self.fw.run_for(QUIESCE_S)

    def check(self, index: int) -> CheckResult:
        errors: list[str] = []
        last_delivery = self.issued_at
        reference = None
        for client, seen in zip(self.clients, self.seen_before):
            arrivals = client.events_received[seen:]
            if client is self.sender:
                if arrivals:
                    errors.append(f"{client.name}: sender received its own event")
                continue
            if len(arrivals) != 1:
                errors.append(f"{client.name}: {len(arrivals)} events for one send")
                continue
            at, event = arrivals[0]
            last_delivery = max(last_delivery, at)
            if reference is None:
                reference = event
                if not self._matches_sent(event):
                    errors.append(f"{client.name}: received {event!r}, sent {self.sent!r}")
            elif event != reference:
                errors.append(f"{client.name}: replica diverges from {reference!r}")
        return errors, last_delivery - self.issued_at, repr((self.sender.name, reference)).encode()

    def _matches_sent(self, event: object) -> bool:
        if self.sent[0] == "chat":
            return event == ChatEvent(author=self.sender.name, text=self.sent[1])
        return (
            isinstance(event, WhiteboardEvent)
            and (event.object_id, event.op, event.points, event.author)
            == (self.sent[1], "draw", self.sent[2], self.sender.name)
        )

    def live_totals(self) -> dict[str, float]:
        out = network_totals(self.fw.network)
        out.update(endpoint_totals(c.endpoint for c in self.clients))
        out.update(selector_totals())
        return out


class EventFanoutAged(EventFanoutWide):
    name = "event_fanout_aged"
    clients_n = 16
    prefill_archives = True
    session_ops = None
