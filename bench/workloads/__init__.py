"""The eight workloads, by name, in the order BENCHMARK.json lists them."""

from __future__ import annotations

from .adaptation import AdaptationPoll
from .base import Workload
from .broker import BrokerMatchScale
from .event_fanout import EventFanoutAged, EventFanoutWide
from .fabric import FabricCastSteady, FabricMembershipChurn
from .image_share import ImageShareAdaptive
from .wireless import WirelessTierGate

__all__ = ["WORKLOADS", "Workload"]

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        ImageShareAdaptive,
        EventFanoutWide,
        EventFanoutAged,
        WirelessTierGate,
        FabricMembershipChurn,
        FabricCastSteady,
        BrokerMatchScale,
        AdaptationPoll,
    )
}
