"""image_share_adaptive — the paper's FIG6/FIG7 path, end to end.

One sharer and six wired receivers on the LAN star.  Per op every
receiver's host advances one tick of a seeded CPU/page-fault trace and
runs ``monitor_and_adapt()`` (SNMP -> inference -> packet budget), the
sharer shares one of eight seeded 64x64 scenes, and every receiver
reconstructs what its budget let through.  A share archives 17 messages
at every client, so the session is renewed (untimed) before the archives
reach their capacity: a run of any length measures the same session ages.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.framework import CollaborationFramework
from repro.hosts.workload import Trace
from repro.media.images import collaboration_scene

from .base import (
    BUDGET_CYCLE,
    NETWORK_SEED,
    TRACE_TICKS,
    CheckResult,
    RenewedSessionWorkload,
    adaptation_totals,
    endpoint_totals,
    host_traces,
    network_totals,
    selector_totals,
)

RECEIVERS = 6
SCENES = 8
SIDE = 64
#: virtual seconds run after each share; deliveries finish within ~2 ms
QUIESCE_S = 0.05


class ImageShareAdaptive(RenewedSessionWorkload):
    name = "image_share_adaptive"
    #: 17 archived messages an op: 6 800 of ``SessionArchive.capacity`` (10 000)
    session_ops = 400
    #: the scene decides the encoder's work and the budgets the decoders';
    #: every receiver meets every budget once in ``BUDGET_CYCLE`` ops
    mix_period = math.lcm(SCENES, BUDGET_CYCLE)

    def setup(self) -> None:
        rng = self.rng
        self.traces = [host_traces(rng, TRACE_TICKS) for _ in range(RECEIVERS)]
        self.scenes = [
            collaboration_scene(SIDE, SIDE, seed=rng.randrange(2**31)) for _ in range(SCENES)
        ]
        #: (scene, budget) -> the sender-side reconstruction every
        #: receiver at that budget must reproduce byte for byte
        self.oracle: dict[tuple[int, int], bytes] = {}
        super().setup()

    def open_session(self) -> None:
        self.fw = fw = CollaborationFramework(
            "bench-image", objective="adaptive image share", seed=NETWORK_SEED
        )
        self.sharer = fw.add_wired_client("sharer")
        self.receivers = [
            fw.add_wired_client(f"rx{r}", cpu_workload=Trace(cpu), fault_workload=Trace(faults))
            for r, (cpu, faults) in enumerate(self.traces)
        ]
        for client in (self.sharer, *self.receivers):
            client.join()
        fw.run_for(0.5)

    def close_session(self) -> None:
        for client in (self.sharer, *self.receivers):
            client.close()
        del self.fw, self.sharer, self.receivers

    def op(self, index: int) -> None:
        fw = self.fw
        tick = index % TRACE_TICKS
        self.issued_at = fw.now
        self.decisions = []
        for receiver in self.receivers:
            fw.hosts[receiver.name].advance_to_tick(tick)
            self.decisions.append(receiver.monitor_and_adapt())
        self.image_id = f"img-{index}"
        self.seen_before = [len(r.events_received) for r in self.receivers]
        self.sharer.share_image(self.image_id, self.scenes[index % SCENES])
        fw.run_for(QUIESCE_S)
        self.reconstructions = [r.viewer.reconstruct(self.image_id) for r in self.receivers]

    def check(self, index: int) -> CheckResult:
        errors: list[str] = []
        scene = index % SCENES
        shared = self.sharer.viewer.shared[self.image_id]
        last_delivery = self.issued_at
        outcome = bytearray()
        for receiver, decision, seen, recon in zip(
            self.receivers, self.decisions, self.seen_before, self.reconstructions
        ):
            budget = decision.packets
            view = receiver.viewer.viewed.get(self.image_id)
            if view is None:
                errors.append(f"{receiver.name}: share never announced")
                continue
            if view.packets_accepted != min(budget, shared.n_packets):
                errors.append(
                    f"{receiver.name}: accepted {view.packets_accepted} packets, budget {budget}"
                )
            want = self.oracle.get((scene, budget))
            if want is None:
                want = self.oracle[scene, budget] = np.ascontiguousarray(
                    shared.reconstruct(budget)
                ).tobytes()
            got = np.ascontiguousarray(recon).tobytes()
            if got != want:
                errors.append(f"{receiver.name}: reconstruction differs at budget {budget}")
            arrivals = receiver.events_received[seen:]
            if len(arrivals) != 1 + shared.n_packets:
                errors.append(f"{receiver.name}: {len(arrivals)} events for one share")
            if arrivals:
                last_delivery = max(last_delivery, arrivals[-1][0])
            outcome += budget.to_bytes(1, "big") + got
        return errors, last_delivery - self.issued_at, bytes(outcome)

    def live_totals(self) -> dict[str, float]:
        clients = (self.sharer, *self.receivers)
        out = network_totals(self.fw.network)
        out.update(endpoint_totals(c.endpoint for c in clients))
        out.update(selector_totals())
        out.update(adaptation_totals(self.receivers))
        views = [v for r in self.receivers for v in r.viewer.viewed.values()]
        out["apps.accepted"] = sum(v.packets_accepted for v in views)
        out["apps.offered"] = sum(v.packets_offered for v in views)
        return out
