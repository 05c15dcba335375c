"""What every workload shares: the interface the harness drives, and the
readers that turn the program's public counters into raw totals."""

from __future__ import annotations

import gc
import random
from collections import Counter
from typing import Any, ClassVar, Iterable, Optional

from repro.core.matching_engine import selector_cache_info
from repro.network.simnet import Network

from ..layers import BUDGETS

__all__ = [
    "BUDGET_CYCLE",
    "CheckResult",
    "RenewedSessionWorkload",
    "TRACE_TICKS",
    "Workload",
    "adaptation_totals",
    "endpoint_totals",
    "host_traces",
    "network_totals",
    "selector_totals",
]

#: ``(errors, virtual latency in seconds or None, outcome bytes for the digest)``
CheckResult = tuple[list[str], Optional[float], bytes]

#: seed of the program's own RNG (link loss/jitter draws).  No workload
#: configures loss or jitter, so it is never consulted; it is pinned so
#: the benchmark's ``--seed`` reaches only the input generators in bench/.
NETWORK_SEED = 0

#: ticks after which a host trace has visited every budget once
BUDGET_CYCLE = len(BUDGETS)
#: ticks in each host trace; ops beyond it wrap around
TRACE_TICKS = BUDGET_CYCLE * 512
#: [low, high) bands of the default CPU-load and page-fault step policies
#: that yield each budget when the other parameter is idle
CPU_BANDS = {16: (20, 44), 8: (44, 58), 4: (58, 72), 2: (72, 86), 1: (86, 97), 0: (97, 101)}
FAULT_BANDS = {16: (10, 44), 8: (44, 58), 4: (58, 72), 2: (72, 86), 1: (86, 101)}


def host_traces(rng: random.Random, ticks: int) -> tuple[list[int], list[int]]:
    """Integer (cpu, page-fault) levels whose budgets cycle evenly.

    Every run of six ticks visits each budget once, in seeded order, and
    a seeded coin picks which parameter is the binding one, so the work
    mix is the same for every seed while the sequence is not.  Levels are
    integers because the extension agent exports integer gauges: SNMP
    then reports exactly what the host holds.
    """
    cpu: list[int] = []
    faults: list[int] = []
    while len(cpu) < ticks:
        cycle = list(BUDGETS)
        rng.shuffle(cycle)
        for budget in cycle:
            by_faults = budget in FAULT_BANDS and rng.random() < 0.5
            if by_faults:
                faults.append(rng.randrange(*FAULT_BANDS[budget]))
                cpu.append(rng.randrange(*CPU_BANDS[16]))
            else:
                cpu.append(rng.randrange(*CPU_BANDS[budget]))
                faults.append(rng.randrange(*FAULT_BANDS[16]))
    return cpu[:ticks], faults[:ticks]


class Workload:
    """One closed-loop workload.

    The harness calls :meth:`setup` once, then :meth:`prepare` /
    :meth:`op` / :meth:`check` in strict rotation (``warmup_ops`` untimed
    rounds first).  ``op``
    issues one operation through the program's public API and runs the
    scheduler to quiescence; ``check`` verifies the output, reads the
    virtual delivery time, and returns the bytes that describe the
    outcome (they feed the run's SHA-256 digest).  Only ``op`` is timed.
    """

    name: ClassVar[str]
    warmup_ops: ClassVar[int] = 3
    #: ops after which the kinds of op repeat (see ``harness.mix_median_rate``)
    mix_period: ClassVar[int] = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed work before op ``index`` (default: none)."""

    def op(self, index: int) -> None:
        raise NotImplementedError

    def check(self, index: int) -> CheckResult:
        raise NotImplementedError

    def totals(self) -> dict[str, float]:
        """Cumulative raw counters (see :func:`bench.layers.derive_counters`)."""
        raise NotImplementedError

    def gauges(self) -> dict[str, float]:
        """Counters that are levels, not increases (default: none)."""
        return {}

    def invariants(self) -> list[str]:
        """End-of-run invariant violations beyond the generic ones."""
        return []

    def close(self) -> None:
        """Release threads/sockets the deployment holds (default: none)."""


class RenewedSessionWorkload(Workload):
    """A workload whose session is replaced by a fresh one every ``session_ops`` ops.

    A session only grows (archives, transcripts, event logs), and per-op
    cost grows with it — by a step once a ``SessionArchive`` reaches its
    capacity — so a run of a fixed *duration* would measure a different
    session age on a fast and on a slow day.  The replacement happens in
    :meth:`prepare`, outside the timed window: every run, however long,
    measures sessions of the same ages.  :meth:`totals` counts the ops of
    every session so far and none of their set-up (joins).
    """

    #: ops after which the session is replaced (None: never)
    session_ops: ClassVar[Optional[int]]

    def setup(self) -> None:
        #: counters of the sessions already retired
        self.retired: dict[str, float] = {}
        self.ops_in_session = 0
        self._open()

    def _open(self) -> None:
        self.open_session()
        self._at_open = self.live_totals()

    def open_session(self) -> None:
        """Build the deployment and join the clients."""
        raise NotImplementedError

    def close_session(self) -> None:
        """Drop every reference to the deployment, so it can be collected."""
        raise NotImplementedError

    def live_totals(self) -> dict[str, float]:
        """Cumulative raw counters, read off the live deployment."""
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        if self.ops_in_session == self.session_ops:
            self.retired = self.totals()
            self.close_session()
            gc.collect()  # the old deployment is one big reference cycle
            self.ops_in_session = 0
            self._open()
        self.ops_in_session += 1

    def totals(self) -> dict[str, float]:
        at_open = self._at_open
        return {
            key: self.retired.get(key, 0.0) + value - at_open[key]
            for key, value in self.live_totals().items()
        }


def network_totals(net: Network) -> dict[str, float]:
    return {
        "net.sent": net.packets_sent,
        "net.delivered": net.packets_delivered,
        "net.dropped": net.packets_dropped,
        "net.duplicated": net.packets_duplicated,
        "net.transmitted": net.packets_transmitted,
    }


def endpoint_totals(endpoints: Iterable[Any]) -> dict[str, float]:
    """Sum the semantic endpoints' public send/decode counters."""
    fragments = messages = failures = 0
    for endpoint in endpoints:
        fragments += endpoint.sent_fragments
        messages += endpoint.sent_messages
        failures += endpoint.decode_failures
    return {
        "msg.sent_fragments": fragments,
        "msg.sent_messages": messages,
        "msg.decode_failures": failures,
    }


def adaptation_totals(clients: Iterable[Any]) -> dict[str, float]:
    """Decisions by budget and SNMP traffic of wired clients' adaptation loops."""
    clients = list(clients)
    budgets = Counter(d.packets for c in clients for _at, d in c.decision_log)
    managers = [c.snmp for c in clients] + [
        c.netstate.manager for c in clients if c.netstate is not None
    ]
    out: dict[str, float] = {f"budget.{b}": budgets[b] for b in BUDGETS}
    out["snmp.requests"] = sum(m.requests_sent for m in managers)
    out["snmp.timeouts"] = sum(m.timeouts for m in managers)
    out["snmp.decisions"] = sum(c.engine.decisions_made for c in clients)
    return out


def selector_totals() -> dict[str, float]:
    info = selector_cache_info()
    return {"selector.hits": info["hits"], "selector.misses": info["misses"]}
