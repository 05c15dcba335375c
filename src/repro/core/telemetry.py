"""Telemetry: one-call observability over a whole deployment.

Every component keeps counters (endpoint messages, SNMP requests,
adaptation decisions, QoS snapshots, archive sizes...).  This module
aggregates them into a per-deployment report — what an operator's
dashboard would show, and what the examples print at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .framework import CollaborationFramework

__all__ = ["deployment_report", "format_report"]


def deployment_report(fw: CollaborationFramework) -> dict[str, Any]:
    """Collect a structured snapshot of every peer's counters."""
    report: dict[str, Any] = {
        "session": fw.session.name,
        "virtual_time": fw.now,
        "nodes": len(fw.network.nodes),
        "links": len(fw.network.links),
        "wired_clients": {},
        "wireless_clients": {},
        "base_stations": {},
    }
    for name, client in sorted(fw.wired_clients.items()):
        report["wired_clients"][name] = {
            "sent_messages": client.endpoint.sent_messages,
            "received_messages": client.endpoint.received_messages,
            "accepted_messages": client.endpoint.accepted_messages,
            "chat_lines": len(client.chat.lines),
            "whiteboard_objects": len(client.whiteboard.objects()),
            "whiteboard_conflicts": client.whiteboard.conflicts,
            "images_viewed": len(client.viewer.viewed),
            "images_shared": len(client.viewer.shared),
            "decisions": len(client.decision_log),
            "last_packet_budget": client.viewer.packet_budget,
            "snmp_requests": client.snmp.requests_sent
            + (client.netstate.manager.requests_sent if client.netstate else 0),
            "archive_size": len(client.archive),
            "members_seen": len(client.membership),
        }
    for name, wc in sorted(fw.wireless_clients.items()):
        counts = wc.modality_counts()
        report["wireless_clients"][name] = {
            "distance_m": wc.distance,
            "tx_power": wc.tx_power,
            "battery_pct": wc.battery,
            "events_received": len(wc.received_events),
            "power_requests": wc.power_requests,
            **counts,
        }
    for name, bs in sorted(fw.base_stations.items()):
        report["base_stations"][name] = {
            "attached": sorted(bs.attachments),
            "qos_snapshots": bs.qos_snapshots,
            "power_requests_sent": bs.power_requests_sent,
            "session_messages": bs.endpoint.received_messages,
            "channel_coupling": bs.channel_coupling,
            "last_sir_db": {
                cid: round(att.sir_db, 2) for cid, att in sorted(bs.attachments.items())
            },
            "last_tiers": {
                cid: att.tier.name for cid, att in sorted(bs.attachments.items())
            },
        }
    return report


def format_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`deployment_report`."""
    lines = [
        f"deployment report — session {report['session']!r}"
        f" at t={report['virtual_time']:.2f}s"
        f" ({report['nodes']} nodes, {report['links']} links)"
    ]
    for section in ("wired_clients", "wireless_clients", "base_stations"):
        if not report[section]:
            continue
        lines.append(f"  {section.replace('_', ' ')}:")
        for name, stats in report[section].items():
            parts = ", ".join(
                f"{k}={v}" for k, v in stats.items() if not isinstance(v, dict)
            )
            lines.append(f"    {name}: {parts}")
            for k, v in stats.items():
                if isinstance(v, dict) and v:
                    lines.append(f"      {k}: {v}")
    return "\n".join(lines)
