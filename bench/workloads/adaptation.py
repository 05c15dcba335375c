"""adaptation_poll — the paper's state interface, on its own.

Eight wired clients, half of them on the aggregated
``NetworkStateInterface``, all with a ``cpu_load`` threshold trap.  Op =
advance every host one tick of its seeded trace, ``monitor_and_adapt()``
on every client, then half a virtual second so armed traps fire and
re-adapt.  SNMP (BER, agent, manager), hosts, inference and policies do
all the work; no media, no session traffic.
"""

from __future__ import annotations

from repro.core.framework import CollaborationFramework
from repro.core.inference import InferenceEngine
from repro.core.policies import default_policy_database
from repro.hosts.workload import Trace

from .base import (
    NETWORK_SEED,
    TRACE_TICKS,
    CheckResult,
    Workload,
    adaptation_totals,
    endpoint_totals,
    host_traces,
    network_totals,
    selector_totals,
)

CLIENTS = 8
CPU_TRAP_THRESHOLD = 80.0
#: one trap-watch interval, so every op gives each armed watch one look
SETTLE_S = 0.5


class AdaptationPoll(Workload):
    name = "adaptation_poll"

    def setup(self) -> None:
        self.fw = fw = CollaborationFramework(
            "bench-adapt", objective="adaptation polling", seed=NETWORK_SEED
        )
        self.clients = []
        for i in range(CLIENTS):
            cpu, faults = host_traces(self.rng, TRACE_TICKS)
            client = fw.add_wired_client(
                f"w{i}", cpu_workload=Trace(cpu), fault_workload=Trace(faults)
            )
            if i % 2:
                client.enable_network_monitoring()
            fw.add_threshold_trap(client, "cpu_load", CPU_TRAP_THRESHOLD)
            self.clients.append(client)
        for client in self.clients:
            client.join()
        fw.run_for(0.5)
        #: the policy applied to ground truth, never to SNMP readings
        self.oracle = InferenceEngine(default_policy_database())

    def op(self, index: int) -> None:
        fw = self.fw
        tick = index % TRACE_TICKS
        self.issued_at = fw.now
        self.logged_before = [len(c.decision_log) for c in self.clients]
        self.truth = []
        for client in self.clients:
            host = fw.hosts[client.name]
            host.advance_to_tick(tick)
            self.truth.append(host.sample())
        for client in self.clients:
            client.monitor_and_adapt()
        fw.run_for(SETTLE_S)

    def check(self, index: int) -> CheckResult:
        errors: list[str] = []
        last_decision = self.issued_at
        outcome = []
        for client, logged, sample in zip(self.clients, self.logged_before, self.truth):
            observed = {
                "cpu_load": sample.cpu_load,
                "page_faults": sample.page_faults,
                "free_memory_kib": float(sample.free_memory_kib),
            }
            if client.netstate is not None:
                link = self.fw.network.link(client.name, "lan-switch")
                observed["bandwidth_bps"] = link.bandwidth * 8.0
            want = self.oracle.infer(client.profile, observed).packets
            decisions = client.decision_log[logged:]
            if not decisions:
                errors.append(f"{client.name}: no adaptation decision this op")
            for at, decision in decisions:
                last_decision = max(last_decision, at)
                if decision.packets != want:
                    errors.append(
                        f"{client.name}: decided {decision.packets} packets; the policy on"
                        f" the host's own values (cpu {sample.cpu_load:.0f}, faults"
                        f" {sample.page_faults:.0f}) gives {want}"
                    )
            outcome.append((client.name, [d.packets for _at, d in decisions]))
        return errors, last_decision - self.issued_at, repr(outcome).encode()

    def totals(self) -> dict[str, float]:
        out = network_totals(self.fw.network)
        out.update(endpoint_totals(c.endpoint for c in self.clients))
        out.update(selector_totals())
        out.update(adaptation_totals(self.clients))
        return out
