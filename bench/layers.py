"""The layer table: which public callable each span wraps, and the counters.

Layer names are this repo's packages.  Every span yields two per-layer
metrics, ``<span>.calls`` (exact for a seed and op count) and
``<span>.self_ms`` (host self time); the counters below are read from
the program's public attributes at the same boundaries.  The full metric
list — 43 spans x 2 + 35 counters + the two virtual-latency percentiles —
is what ``BENCHMARK.json`` declares under ``per_layer``.
"""

from __future__ import annotations

__all__ = [
    "BUDGETS",
    "COUNTERS",
    "COUNTER_SPECS",
    "HOST_TIME_COUNTERS",
    "SPAN_NAMES",
    "SPAN_TARGETS",
    "TIERS",
    "TRACED_SHARE",
    "VIRT_METRICS",
    "derive_counters",
    "per_layer_specs",
]

#: ``(span, "module:function" | "module:Class.method[+]")`` — see
#: :meth:`bench.trace.Tracer.install` for the target syntax.
SPAN_TARGETS: tuple[tuple[str, str], ...] = (
    # media
    ("media.ezw_encode", "repro.media.ezw:encode_image"),
    ("media.ezw_decode", "repro.media.ezw:decode_image"),
    ("media.describe", "repro.media.describe:describe_image"),
    ("media.sketch", "repro.media.sketch:extract_sketch"),
    ("media.speech", "repro.media.speech:text_to_speech"),
    ("media.packet_codec", "repro.media.progressive:ImagePacket.to_bytes"),
    ("media.packet_codec", "repro.media.progressive:ImagePacket.from_bytes"),
    # apps
    ("apps.viewer_share", "repro.apps.imageviewer:ImageViewer.share"),
    ("apps.viewer_on_packet", "repro.apps.imageviewer:ImageViewer.on_packet"),
    # core
    ("core.client_publish", "repro.core.client:WiredClient.share_image"),
    ("core.client_publish", "repro.core.client:WiredClient.send_chat"),
    ("core.client_publish", "repro.core.client:WiredClient.draw"),
    ("core.event_codec", "repro.core.events:Event.to_body+"),
    ("core.event_codec", "repro.core.events:decode_event"),
    ("core.interpret", "repro.core.matching:interpret"),
    ("core.shortlist", "repro.core.matching_engine:MatchingEngine.shortlist"),
    ("core.shortlist", "repro.core.matching_engine:MatchingEngine.shortlist_many"),
    ("core.adapt", "repro.core.client:WiredClient.monitor_and_adapt"),
    ("core.netstate_poll", "repro.core.netstate:NetworkStateInterface.poll"),
    ("core.infer", "repro.core.inference:InferenceEngine.infer"),
    ("core.bs_evaluate_qos", "repro.core.basestation:BaseStation.evaluate_qos"),
    ("core.bs_power_control", "repro.core.basestation:BaseStation.apply_power_control"),
    ("core.wireless_send", "repro.core.wireless_client:WirelessClient.send_event"),
    ("core.wireless_send", "repro.core.wireless_client:WirelessClient.move_to"),
    ("core.wireless_send", "repro.core.wireless_client:WirelessClient.set_power"),
    # messaging
    ("messaging.wire_encode", "repro.messaging.serialization:encode_message"),
    ("messaging.wire_decode", "repro.messaging.serialization:decode_message"),
    ("messaging.rtp_packetize", "repro.messaging.rtp:RtpPacketizer.packetize"),
    ("messaging.rtp_packetize", "repro.messaging.rtp:RtpPacket.encode"),
    ("messaging.rtp_ingest", "repro.messaging.rtp:RtpReassembler.ingest"),
    ("messaging.endpoint_publish", "repro.messaging.transport:SemanticEndpoint.publish"),
    ("messaging.endpoint_publish", "repro.messaging.transport:SemanticEndpoint.publish_many"),
    ("messaging.endpoint_publish", "repro.messaging.transport:SemanticEndpoint.unicast"),
    ("messaging.bus_publish", "repro.messaging.broker:SemanticBus.publish"),
    ("messaging.sharded_publish_many", "repro.messaging.sharded:ShardedSemanticBus.publish_many"),
    ("messaging.bus_attach", "repro.messaging.broker:SemanticBus.attach"),
    ("messaging.bus_attach", "repro.messaging.broker:SemanticBus.detach"),
    ("messaging.sharded_attach", "repro.messaging.sharded:ShardedSemanticBus.attach"),
    ("messaging.sharded_attach", "repro.messaging.sharded:ShardedSemanticBus.detach"),
    # network
    ("network.sched_run", "repro.network.clock:Scheduler.run_until"),
    ("network.sched_step", "repro.network.clock:Scheduler.step"),
    ("network.sched_call_at", "repro.network.clock:Scheduler.call_at"),
    ("network.send", "repro.network.simnet:Network.send"),
    ("network.cast", "repro.network.simnet:Network.cast"),
    ("network.route", "repro.network.simnet:Network.route"),
    ("network.group_fanout", "repro.network.multicast:MulticastGroup.fan_out"),
    ("network.deliver", "repro.network.simnet:Node.deliver"),
    ("network.fabric_join", "repro.network.routing:MulticastFabric.join"),
    ("network.fabric_leave", "repro.network.routing:MulticastFabric.leave"),
    ("network.fabric_cast", "repro.network.routing:MulticastFabric.cast"),
    ("network.link_flap", "repro.network.simnet:Network.set_link_up"),
    # snmp / hosts / wireless
    ("snmp.manager_get", "repro.snmp.manager:SnmpManager.get"),
    ("snmp.ber_codec", "repro.snmp.ber:encode"),
    ("snmp.ber_codec", "repro.snmp.ber:decode"),
    ("hosts.sample", "repro.hosts.host:SimulatedHost.sample"),
    ("wireless.sir", "repro.wireless.sir:sir_db"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(span for span, _ in SPAN_TARGETS))

#: packet budgets the inference engine snaps to / the four modality tiers
BUDGETS = (0, 1, 2, 4, 8, 16)
TIERS = ("nothing", "text", "sketch", "full")

#: counter -> (unit, which direction is better).  The per-bucket counts
#: describe the workload's mix and have no better direction; they are
#: declared "lower" only because the declaration needs one.
COUNTER_SPECS: dict[str, tuple[str, str]] = {
    "network.events_per_op": ("1/op", "lower"),
    "network.host_us_per_event": ("us", "lower"),
    "network.packets_sent_per_op": ("1/op", "lower"),
    "network.packets_transmitted_per_op": ("1/op", "lower"),
    "network.packets_dropped": ("count", "lower"),
    "network.conservation_ok": ("bool", "higher"),
    "network.fabric_rebuilds_per_membership_op": ("ratio", "lower"),
    "network.fabric_plan_builds_per_cast": ("ratio", "lower"),
    "network.fabric_repairs": ("count", "lower"),
    "messaging.fragments_per_message": ("ratio", "lower"),
    "messaging.candidates_checked_per_delivered": ("ratio", "lower"),
    "messaging.shard_skips": ("count", "higher"),
    "messaging.decode_failures": ("count", "lower"),
    "messaging.sharded_workers": ("count", "higher"),
    "core.selector_cache_hit_ratio": ("ratio", "higher"),
    **{f"core.decisions_by_budget.{b}": ("count", "lower") for b in BUDGETS},
    **{f"core.tier_histogram.{t}": ("count", "lower") for t in TIERS},
    "core.bs_unicasts_per_session_event": ("ratio", "lower"),
    "apps.packets_accepted_over_offered": ("ratio", "higher"),
    "snmp.requests_per_adapt": ("ratio", "lower"),
    "snmp.timeouts": ("count", "lower"),
    "harness.op_wall_ms_p50": ("ms", "lower"),
    "harness.op_wall_ms_p95": ("ms", "lower"),
    "harness.cpu_s": ("s", "lower"),
    "harness.gc_gen2_collections": ("count", "lower"),
    "harness.trace_overhead_ratio": ("ratio", "lower"),
    "harness.trace_coverage": ("ratio", "higher"),
}
COUNTERS: tuple[str, ...] = tuple(COUNTER_SPECS)

#: counters that depend on the host (time, core count, collector): never
#: pinned in ``expected/seed0.json`` nor required identical by --selfcheck
HOST_TIME_COUNTERS = frozenset(
    name for name in COUNTERS if name.startswith("harness.")
) | {"network.host_us_per_event", "messaging.sharded_workers"}

VIRT_METRICS = ("virt_latency_ms_p50", "virt_latency_ms_p99")

#: ``--all`` traces the first 1/TRACED_SHARE of the canonical op sequence
TRACED_SHARE = 4


def per_layer_specs() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in declaration order."""
    specs = []
    for span in SPAN_NAMES:
        specs.append((f"{span}.calls", "count", "lower"))
        specs.append((f"{span}.self_ms", "ms", "lower"))
    specs.extend((name, unit, better) for name, (unit, better) in COUNTER_SPECS.items())
    specs.extend((name, "ms", "lower") for name in VIRT_METRICS)
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive_counters(raw: dict[str, float], ops: int, events: int) -> dict[str, float]:
    """The program-side counters, from raw attribute deltas over the timed ops.

    ``raw`` maps the short keys the workloads report (``net.sent``,
    ``fabric.rebuilds``, ``budget.8`` ...) to their increase between the
    first and the last timed op; ``events`` is ``network.sched_step.calls``
    of the same run.  A counter whose layer the workload never touches
    comes out 0 — as a count of work done that is the truth, not a gap.
    """
    get = lambda key: raw.get(key, 0.0)  # noqa: E731
    sent, delivered = get("net.sent"), get("net.delivered")
    out = {
        "network.events_per_op": _ratio(events, ops),
        "network.packets_sent_per_op": _ratio(sent, ops),
        "network.packets_transmitted_per_op": _ratio(get("net.transmitted"), ops),
        "network.packets_dropped": get("net.dropped"),
        "network.conservation_ok": float(
            sent == delivered + get("net.dropped") + get("net.duplicated")
        ),
        "network.fabric_rebuilds_per_membership_op": _ratio(
            get("fabric.rebuilds"), get("fabric.membership_ops")
        ),
        "network.fabric_plan_builds_per_cast": _ratio(
            get("fabric.plan_builds"), get("fabric.casts")
        ),
        "network.fabric_repairs": get("fabric.repairs"),
        "messaging.fragments_per_message": _ratio(
            get("msg.sent_fragments"), get("msg.sent_messages")
        ),
        "messaging.candidates_checked_per_delivered": _ratio(
            get("broker.checked"), get("broker.delivered")
        ),
        "messaging.shard_skips": get("broker.shard_skips"),
        "messaging.decode_failures": get("msg.decode_failures"),
        "core.selector_cache_hit_ratio": _ratio(
            get("selector.hits"), get("selector.hits") + get("selector.misses")
        ),
        "core.bs_unicasts_per_session_event": _ratio(
            get("bs.unicasts"), get("bs.session_events")
        ),
        "apps.packets_accepted_over_offered": _ratio(
            get("apps.accepted"), get("apps.offered")
        ),
        "snmp.requests_per_adapt": _ratio(get("snmp.requests"), get("snmp.decisions")),
        "snmp.timeouts": get("snmp.timeouts"),
    }
    for budget in BUDGETS:
        out[f"core.decisions_by_budget.{budget}"] = get(f"budget.{budget}")
    for tier in TIERS:
        out[f"core.tier_histogram.{tier}"] = get(f"tier.{tier}")
    return out
