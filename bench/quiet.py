"""Wait for the host to be quiet before a timed run starts.

The box the benchmark runs on is a few cores of a shared host.  A
neighbour slows everything CPU-bound by 1.5-2.3x for 15-85 s at a time;
a run that starts inside such a spell measures the neighbour.  The
statistics in :mod:`bench.harness` shrug off a spell that *starts* during
a run; this module keeps a run from starting in one.

A *probe* is a fixed, allocation-heavy pure-Python kernel (heap, dict,
small objects: what the simulator itself is made of) timed as the median
of ``BURST`` repetitions, ~30 ms in all.  It slows down with the program
(1.5-2.0x where the program slowed 1.9-2.6x).  The fastest probe ever seen
in this checkout is kept in ``bench/out/quiet.json``; the host counts as
quiet while a probe is within ``QUIET_FACTOR`` of it.  The wait is bounded
per run and over the checkout's lifetime, so a host that is never quiet
costs bounded time and is then measured as it is.
"""

from __future__ import annotations

import heapq
import json
import statistics
import time
from pathlib import Path
from typing import Callable, Optional

__all__ = ["probe", "wait_for_quiet"]

BURST = 41
#: quiet probes sit at 1.0-1.25x the fastest ever seen, a spell's at >= 1.5x
QUIET_FACTOR = 1.35
RETRY_S = 2.0
MAX_WAIT_PER_RUN_S = 60.0
MAX_WAIT_PER_CHECKOUT_S = 600.0


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value: int, link: Optional["_Cell"]) -> None:
        self.value = value
        self.link = link


def _kernel() -> int:
    heap: list[tuple[int, int, _Cell]] = []
    seen: dict[str, int] = {}
    last = None
    for i in range(600):
        last = _Cell(i, last)
        heapq.heappush(heap, ((i * 7919) % 1013, i, last))
        key = f"k{i % 97}"
        seen[key] = seen.get(key, 0) + i
    total = 0
    while heap:
        total += heapq.heappop(heap)[2].value
    return total + len(seen)


def probe() -> float:
    """Median wall, in seconds, of ``BURST`` runs of the fixed kernel."""
    clock = time.perf_counter
    walls = []
    for _ in range(BURST):
        t0 = clock()
        _kernel()
        walls.append(clock() - t0)
    return statistics.median(walls)


def wait_for_quiet(
    state_path: Path,
    *,
    take_probe: Callable[[], float] = probe,
    sleep: Callable[[float], None] = time.sleep,
) -> dict[str, float]:
    """Block until a probe is within ``QUIET_FACTOR`` of the fastest on record.

    Returns ``{"probe_s", "fastest_s", "waited_s"}`` of this call.  The
    record is updated with every probe taken, so the first run in a
    checkout (no record) never waits and later ones learn from it.
    """
    try:
        state = json.loads(state_path.read_text(encoding="utf-8"))
        fastest, spent = float(state["fastest_s"]), float(state["waited_s"])
    except (OSError, ValueError, KeyError, TypeError):
        fastest, spent = float("inf"), 0.0
    budget = max(0.0, min(MAX_WAIT_PER_RUN_S, MAX_WAIT_PER_CHECKOUT_S - spent))
    waited = 0.0
    while True:
        now = take_probe()
        fastest = min(fastest, now)
        if now <= fastest * QUIET_FACTOR or waited >= budget:
            break
        sleep(RETRY_S)
        waited += RETRY_S
    state_path.parent.mkdir(parents=True, exist_ok=True)
    state_path.write_text(
        json.dumps({"fastest_s": fastest, "waited_s": spent + waited}) + "\n", encoding="utf-8"
    )
    return {"probe_s": now, "fastest_s": fastest, "waited_s": waited}
