"""Slow reference for the simulation kernel's per-event and per-hop path.

The code ``clock.py`` / ``simnet.py`` ran before the per-event path was
rewritten, kept verbatim as the test oracle:

* :class:`ReferenceEvent` / :class:`ReferenceScheduler` — the
  keyword-built dataclass event, the ``clock.now`` property and
  ``_advance_to`` call per dispatched event, ``pending`` as a heap scan
  (the oracle of the maintained count) and the runaway guard that fires
  after exactly ``max_events`` dispatches whether or not anything is
  still due (the one *bug* kept: properties that compare the two
  schedulers leave ``max_events`` alone);
* :func:`reference_enqueue` — ``Link.enqueue`` with its ``max()`` call;
* :class:`ReferenceNetwork` — ``send`` / ``cast`` / ``_transmit`` over
  ``(parent, link)`` hops: ``Link.other`` per carried hop, and
  ``rng`` / ``delivery_interceptor`` / ``tracer`` / ``scheduler`` /
  ``_nodes`` re-read from the instance per hop and per copy.  Two
  adaptations, both forced: ``cast`` finds a plan edge's link under the
  ordered-pair key ``Network._links`` now has (it built a ``frozenset``
  per edge), and ``_transmit`` calls :func:`reference_enqueue`.

Topology, routing, counters and the fault / tracer hooks are inherited
from ``Network``, so a fast and a reference world built by the same
calls differ in nothing but the path under test.
"""

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.network.clock import SimClock, SimulationError
from repro.network.simnet import Network, Packet


@dataclass(order=False)
class ReferenceEvent:
    time: float
    seq: int
    callback: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceScheduler:
    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self._heap: list = []
        self._counter = itertools.count()

    def call_at(self, t, callback, *args):
        if not math.isfinite(t):
            raise SimulationError(f"event time must be finite, got {t}")
        if t < self.clock.now:
            raise SimulationError(
                f"cannot schedule in the past: {t} < now={self.clock.now}"
            )
        ev = ReferenceEvent(time=t, seq=next(self._counter), callback=callback, args=args)
        heapq.heappush(self._heap, (ev.time, ev.seq, ev))
        return ev

    def call_after(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.clock.now + delay, callback, *args)

    @property
    def pending(self) -> int:
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    def step(self) -> bool:
        while self._heap:
            _, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self.clock._advance_to(ev.time)
            ev.callback(*ev.args)
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        n = 0
        while self.step():
            n += 1
            if n >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
        return n

    def run_until(self, t, max_events: int = 10_000_000) -> int:
        n = 0
        while self._heap:
            time_next, _, ev = self._heap[0]
            if ev.cancelled:
                heapq.heappop(self._heap)
                continue
            if time_next > t:
                break
            self.step()
            n += 1
            if n >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        self.clock._advance_to(max(self.clock.now, t))
        return n

    def run_for(self, duration, max_events: int = 10_000_000) -> int:
        return self.run_until(self.clock.now + duration, max_events=max_events)


def reference_enqueue(link, src, now, size, rng) -> float:
    ser = 0.0 if link.bandwidth == math.inf else size / link.bandwidth
    start = max(now, link._busy_until.get(src, 0.0))
    link._busy_until[src] = start + ser
    delay = link.latency
    if link.jitter > 0.0:
        delay += abs(float(rng.normal(0.0, link.jitter)))
    arrival = start + ser + delay
    prev = link._last_arrival.get(src)
    if prev is not None and arrival < prev:
        arrival = prev
    link._last_arrival[src] = arrival
    return arrival


class ReferenceNetwork(Network):
    def send(self, packet):
        hops = []
        node = packet.src
        for link in self.route(node, packet.dst) or ():
            hops.append((node, link))
            node = link.other(node)
        return self._transmit(packet.src, packet.size, hops, (packet,)) == 1

    def cast(self, packet, plan, targets):
        links = self._links
        hops = [
            (parent, link)
            for parent, child in plan.edges
            if (link := links.get((parent, child))) is not None
        ]
        src, src_port, payload = packet.src, packet.src_port, packet.payload
        copies = [Packet(src, src_port, host, port, payload) for host, port in targets]
        return self._transmit(plan.root, packet.size, hops, copies)

    def _transmit(self, root, size, hops, copies):
        now = self.scheduler.clock.now
        arrival = {root: now}
        via = {}
        for parent, link in hops:
            t = arrival.get(parent)
            if t is None or not link.up:
                continue
            link.tx_octets += size
            p_loss = link.loss_fn(size) if link.loss_fn is not None else link.loss
            if p_loss > 0.0 and self.rng.random() < p_loss:
                link.dropped_packets += 1
                continue
            child = link.other(parent)
            arrival[child] = reference_enqueue(link, parent, t, size, self.rng)
            link.rx_octets += size
            self.packets_transmitted += 1
            via[child] = link
        scheduled = 0
        for packet in copies:
            self.packets_sent += 1
            t = arrival.get(packet.dst)
            last = via.get(packet.dst)
            if t is None:
                times = ()
            elif last is None or self.delivery_interceptor is None:
                times = (t,)
            else:
                path = []
                node = packet.dst
                while node != root:
                    link = via[node]
                    path.append(link)
                    node = link.other(node)
                path.reverse()
                times = self.delivery_interceptor(packet, path, t)
            if self.tracer is not None:
                self.tracer.record(packet, bool(times))
            if not times:
                self.packets_dropped += 1
                continue
            if len(times) == 1:
                self.packets_delivered += 1
            else:
                self.packets_duplicated += 1
            self.copies_delivered += len(times)
            if last is not None:
                last.delivered_packets += len(times)
            deliver = self._nodes[packet.dst].deliver
            for entry in times:
                td, sub = entry if isinstance(entry, tuple) else (entry, packet)
                self.scheduler.call_at(td, deliver, sub)
            scheduled += 1
        return scheduled
