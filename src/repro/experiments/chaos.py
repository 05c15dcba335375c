"""CHAOS — a collaboration session run under injected degraded conditions.

Not a paper figure: a robustness drill.  Three wired clients chat, share
an image, and run their adaptation loops while a seeded
:class:`~repro.network.faults.FaultPlan` degrades the deployment — the
sender's access link flaps, one client is partitioned off, another
host's SNMP agent crashes, and the LAN suffers a burst-loss episode, a
payload-corruption window, a latency spike, and a duplication window.
The run demonstrates the framework's graceful-degradation machinery end
to end:

* SNMP retries back off in virtual time and the per-agent circuit
  breaker fails fast while an agent is down;
* adaptation decisions fall back to the conservative floor once the
  management plane is dark beyond its stale grace;
* once the last fault window closes, every peer asks the session for
  its history (``request_history``), the one way a peer gets back what
  it missed — chat lines, strokes and image packets alike; then carol
  leaves (``leave``), and the session's later traffic goes on without her;
* a corrupted datagram fails its UDP checksum and is dropped (the
  controller's ``checksum_drops``), so the history brings it back like
  any other loss; damage the checksum cannot see would reach every
  receiver's hardened decode path, which counts (``decode_failures``)
  and drops what it cannot decode, never fatally;
* the packet-disposition conservation invariant
  (``sent == delivered + dropped + duplicated``) holds throughout — a
  packet whose every copy fails the checksum is dropped, a damaged copy
  delivered is neither a drop nor a duplicate — and a
  :class:`~repro.network.trace.PacketTracer` sees every transmission:
  its per-flow delivered and dropped counts add up to the network's
  counters.

Everything is driven by the virtual clock and seeded RNGs, so two runs
with the same seed produce *byte-identical* telemetry
(:func:`chaos_telemetry`) — the property the regression suite pins.
"""

from __future__ import annotations

from ..core.framework import CollaborationFramework
from ..core.telemetry import deployment_report, format_report
from ..media.images import collaboration_scene
from ..network.faults import (
    AgentCrash,
    BurstLoss,
    ChaosController,
    Corruption,
    Duplication,
    FaultPlan,
    LatencySpike,
    LinkFlap,
    Partition,
    Reordering,
)
from ..network.trace import PacketTracer
from .harness import ExperimentResult

__all__ = ["default_chaos_plan", "run_chaos", "chaos_telemetry"]

#: Virtual seconds the drill runs for (past the last fault window).
DURATION = 24.0
#: The peer that leaves after the catch-up, and when: past the plan's
#: horizon (22.5 s) and before alice's last chat line (23.0 s).
LEAVER = "carol"
LEAVE_AT = 22.75


def default_chaos_plan() -> FaultPlan:
    """The drill's schedule: every fault family, non-overlapping enough
    to attribute effects, overlapping enough to exercise nesting."""
    return FaultPlan(
        events=(
            LinkFlap("alice", "lan-switch", start=4.0, duration=2.0),
            BurstLoss("bob", "lan-switch", start=7.0, duration=3.0),
            Partition(("carol",), start=10.0, duration=3.0),
            AgentCrash("bob", start=13.0, duration=5.0),
            Corruption(start=15.0, duration=3.0, probability=0.4),
            LatencySpike(start=18.0, duration=2.0, extra=0.05),
            Duplication(start=19.0, duration=3.5, probability=0.6),
            Reordering(start=20.0, duration=2.0, probability=0.3),
        )
    )


def _run(seed: int, duration: float) -> tuple[CollaborationFramework, ChaosController]:
    """Build the deployment, install the plan, and run it to the end."""
    fw = CollaborationFramework(
        "chaos", objective="degraded-conditions drill", seed=seed
    )
    PacketTracer(fw.network).attach()
    alice = fw.add_wired_client("alice")
    bob = fw.add_wired_client("bob")
    carol = fw.add_wired_client("carol")
    for client in (alice, bob, carol):
        client.join()
    plan = default_chaos_plan()
    controller = ChaosController(fw.network, plan, seed=seed, agents=fw.agents).install()

    # steady traffic + adaptation across every fault window
    for client in (alice, bob, carol):
        client.start_adaptation_loop(interval=1.0)
    counter = [0]

    def chat_tick() -> None:
        counter[0] += 1
        alice.send_chat(f"status {counter[0]}")
        if counter[0] * 1.5 < duration:
            fw.scheduler.call_after(1.5, chat_tick)

    fw.scheduler.call_after(0.5, chat_tick)
    image = collaboration_scene(32, 32, seed=seed + 7)
    fw.scheduler.call_after(2.5, lambda: alice.share_image("img-calm", image))
    fw.scheduler.call_after(11.0, lambda: bob.share_image("img-storm", image))
    # the faults are over: each peer catches up on what it lost, then one leaves
    for client in (alice, bob, carol):
        fw.scheduler.call_at(plan.horizon, client.request_history)
    fw.scheduler.call_at(LEAVE_AT, fw.wired_clients[LEAVER].leave)
    fw.run_for(duration)
    return fw, controller


def chaos_telemetry(seed: int = 0) -> str:
    """One drill run rendered as a deterministic telemetry blob.

    Same seed → byte-identical output: the deployment report, the
    network's packet-disposition counters, the tracer's per-flow counts
    and the chaos controller's event counters are all functions of the
    virtual clock and the seeded RNGs only.
    """
    fw, controller = _run(seed, DURATION)
    net = fw.network
    lines = [format_report(deployment_report(fw))]
    lines.append(
        "network: "
        f"sent={net.packets_sent} delivered={net.packets_delivered} "
        f"dropped={net.packets_dropped} duplicated={net.packets_duplicated} "
        f"copies={net.copies_delivered}"
    )
    assert net.tracer is not None
    lines.append(net.tracer.summary())
    lines.append(
        "chaos: " + " ".join(f"{k}={v}" for k, v in sorted(controller.report().items()))
    )
    breakers = {
        name: client.snmp.breaker_state(client.snmp_host)
        for name, client in sorted(fw.wired_clients.items())
    }
    lines.append("breakers: " + " ".join(f"{k}={v}" for k, v in breakers.items()))
    return "\n".join(lines)


def run_chaos(seed: int = 0) -> ExperimentResult:
    """Run the drill; one row per peer plus the disposition invariant."""
    fw, controller = _run(seed, DURATION)
    result = ExperimentResult(
        "CHAOS",
        "collaboration under injected faults (seeded, deterministic)",
        columns=(
            "peer",
            "received",
            "accepted",
            "chat_lines",
            "decisions",
            "snmp_failures",
            "fast_failures",
            "last_budget",
        ),
    )
    for name, client in sorted(fw.wired_clients.items()):
        result.add_row(
            peer=name,
            received=client.endpoint.received_messages,
            accepted=client.endpoint.accepted_messages,
            chat_lines=len(client.chat.lines),
            decisions=len(client.decision_log),
            snmp_failures=client.snmp_failures,
            fast_failures=client.snmp.fast_failures,
            last_budget=client.viewer.packet_budget,
        )
    net = fw.network
    conserved = net.packets_sent == (
        net.packets_delivered + net.packets_dropped + net.packets_duplicated
    )
    assert net.tracer is not None
    flows = net.tracer.flows.values()
    traced = (
        sum(f.packets for f in flows),
        sum(f.delivered for f in flows),
        sum(f.dropped for f in flows),
    )
    reconciled = traced == (
        net.packets_sent,
        net.packets_delivered + net.packets_duplicated,
        net.packets_dropped,
    )
    result.note(
        f"packet disposition: sent={net.packets_sent} "
        f"delivered={net.packets_delivered} dropped={net.packets_dropped} "
        f"duplicated={net.packets_duplicated} (conserved={conserved})"
    )
    result.note(
        f"packet trace: {traced[0]} packets in {len(flows)} flows, "
        f"delivered={traced[1]} dropped={traced[2]} (reconciled={reconciled})"
    )
    result.note(
        "chaos events: "
        + " ".join(f"{k}={v}" for k, v in sorted(controller.report().items()))
    )
    assert conserved, "packet disposition counters must be conserved"
    assert reconciled, "the tracer's flows must add up to the network's counters"
    return result
