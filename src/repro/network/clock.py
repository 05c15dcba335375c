"""Discrete-event simulation core: virtual clock and event scheduler.

All time in the simulated substrate is virtual.  The :class:`Scheduler`
maintains a priority queue of timestamped callbacks and advances the
:class:`SimClock` monotonically as events are dispatched.  Every other
simulated component (links, sockets, SNMP agents, hosts, base stations)
schedules work through a single shared ``Scheduler`` so that an entire
collaboration session is reproducible and single-threaded.

The design follows the usual discrete-event pattern: a heap of
``(time, sequence, Event)`` entries where ``sequence`` breaks ties in
insertion order, making runs deterministic even when many events share a
timestamp.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import isfinite
from typing import Any, Callable, Optional

__all__ = ["SimClock", "Event", "Scheduler", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class SimClock:
    """A monotonically advancing virtual clock.

    The clock only moves when the owning :class:`Scheduler` dispatches an
    event; user code never sets it directly.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def _advance_to(self, t: float) -> None:
        if t < self._now:
            raise SimulationError(f"clock cannot move backwards: {t} < {self._now}")
        self._now = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.6f})"


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Scheduler.call_at` /
    :meth:`Scheduler.call_after` and may be cancelled before they fire.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        scheduler: Optional["Scheduler"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: the scheduler whose queue still holds this event; ``None`` once
        #: it fired, was skipped, or was cancelled (see :meth:`cancel`)
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True
        scheduler = self._scheduler
        if scheduler is not None:  # still queued: leaves ``pending`` exactly once
            self._scheduler = None
            scheduler._cancelled_queued += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event(time={self.time!r}, seq={self.seq!r}, cancelled={self.cancelled!r})"


class Scheduler:
    """Priority-queue discrete-event scheduler.

    Example
    -------
    >>> sched = Scheduler()
    >>> fired = []
    >>> _ = sched.call_after(1.5, fired.append, "a")
    >>> _ = sched.call_after(0.5, fired.append, "b")
    >>> _ = sched.run()
    >>> fired
    ['b', 'a']
    >>> sched.clock.now
    1.5
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        #: cancelled events the heap still holds (they leave it lazily)
        self._cancelled_queued = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, t: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``t``."""
        if not isfinite(t):
            raise SimulationError(f"event time must be finite, got {t}")
        now = self.clock._now
        if t < now:
            raise SimulationError(f"cannot schedule in the past: {t} < now={now}")
        seq = next(self._counter)
        ev = Event(t, seq, callback, args, self)
        heappush(self._heap, (t, seq, ev))
        return ev

    def call_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.clock.now + delay, callback, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - self._cancelled_queued

    def step(self) -> bool:
        """Dispatch the single earliest pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was empty.
        """
        heap = self._heap
        while heap:
            t, _, ev = heappop(heap)
            if ev.cancelled:
                self._cancelled_queued -= 1
                continue
            ev._scheduler = None  # fired: a late cancel() must not count
            clock = self.clock
            if t < clock._now:
                clock._advance_to(t)  # raises: the clock cannot move backwards
            clock._now = t
            ev.callback(*ev.args)
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains.  Returns events dispatched."""
        n = 0
        while self.step():
            n += 1
            if n >= max_events and self.pending:
                raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
        return n

    def run_until(self, t: float, max_events: int = 10_000_000) -> int:
        """Run all events with timestamp <= ``t``; leave the clock at ``t``.

        Events scheduled beyond ``t`` stay queued.
        """
        heap = self._heap
        step = self.step
        n = 0
        while heap:
            time_next, _, ev = heap[0]
            if ev.cancelled:
                heappop(heap)
                self._cancelled_queued -= 1
                continue
            if time_next > t:
                break
            if n >= max_events:  # only a further due event is a runaway
                raise SimulationError(f"exceeded max_events={max_events}")
            step()
            n += 1
        clock = self.clock
        if t > clock._now:
            clock._now = t
        return n

    def run_for(self, duration: float, max_events: int = 10_000_000) -> int:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run_until(self.clock.now + duration, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Scheduler(now={self.clock.now:.6f}, pending={self.pending})"
