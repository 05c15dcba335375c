"""Simulated host: the 'Windows NT workstation' the agent instruments.

A :class:`SimulatedHost` owns the observable system state of one machine
— CPU load (%), page faults per sampling interval, memory — and advances
it on the shared discrete-event scheduler, driven by
:mod:`~repro.hosts.workload` generators.  The framework never reads this
state directly: it goes through the SNMP extension agent (see
:mod:`~repro.hosts.snmp_binding`), exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..network.clock import Event, Scheduler
from .workload import Constant, Workload

__all__ = ["SimulatedHost", "HostSample"]

#: Installed memory of every simulated host: 256 MiB, era-appropriate.
TOTAL_MEMORY_KIB = 262_144
#: Processes running on an idle host; load adds one per 10 % CPU.
BASE_PROCESSES = 40
#: Virtual seconds between a running host's self-updates (its sampling interval).
TICK_INTERVAL = 1.0


@dataclass(frozen=True)
class HostSample:
    """One instant of a host's observable state."""

    tick: int
    time: float
    cpu_load: float       # percent, 0..100
    page_faults: float    # faults per sampling interval
    free_memory_kib: int
    total_memory_kib: int
    processes: int


class SimulatedHost:
    """Deterministic host dynamics on the simulation clock.

    Parameters
    ----------
    name:
        Host name; should match its network node.
    scheduler:
        Shared simulation scheduler; the host ticks itself every
        :data:`TICK_INTERVAL` seconds once :meth:`start` is called.
    cpu_workload / fault_workload:
        Generators for the two swept parameters.  Free memory is derived:
        heavy paging (high fault rate) correlates with low free memory.
    """

    def __init__(
        self,
        name: str,
        scheduler: Scheduler,
        cpu_workload: Optional[Workload] = None,
        fault_workload: Optional[Workload] = None,
    ) -> None:
        self.name = name
        self.scheduler = scheduler
        self.cpu_workload = cpu_workload if cpu_workload is not None else Constant(20.0)
        self.fault_workload = fault_workload if fault_workload is not None else Constant(10.0)
        self.tick = 0
        #: the pending tick while running, else ``None``
        self._pending: Optional[Event] = None
        self._update()

    # ------------------------------------------------------------------
    def _update(self) -> None:
        self.cpu_load = float(np.clip(self.cpu_workload.value(self.tick), 0.0, 100.0))
        self.page_faults = float(max(0.0, self.fault_workload.value(self.tick)))
        # paging pressure model: free memory shrinks as fault rate grows
        pressure = min(self.page_faults / 120.0, 0.95)
        self.free_memory_kib = int(TOTAL_MEMORY_KIB * (0.6 * (1.0 - pressure) + 0.05))
        self.processes = BASE_PROCESSES + int(self.cpu_load / 10.0)

    def _tick(self) -> None:
        self.tick += 1
        self._update()
        self._pending = self.scheduler.call_after(TICK_INTERVAL, self._tick)

    def start(self) -> None:
        """Begin periodic self-updates on the scheduler (idempotent)."""
        if self._pending is None:
            self._pending = self.scheduler.call_after(TICK_INTERVAL, self._tick)

    def stop(self) -> None:
        """Freeze the host's state: the pending tick is cancelled."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def advance_to_tick(self, tick: int) -> None:
        """Jump the workload position directly (sweep-style experiments)."""
        if tick < 0:
            raise ValueError("tick must be non-negative")
        self.tick = tick
        self._update()

    # ------------------------------------------------------------------
    def sample(self) -> HostSample:
        """Snapshot the current observable state."""
        return HostSample(
            tick=self.tick,
            time=self.scheduler.clock.now,
            cpu_load=self.cpu_load,
            page_faults=self.page_faults,
            free_memory_kib=self.free_memory_kib,
            total_memory_kib=TOTAL_MEMORY_KIB,
            processes=self.processes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulatedHost({self.name!r}, tick={self.tick},"
            f" cpu={self.cpu_load:.0f}%, pf={self.page_faults:.0f})"
        )
