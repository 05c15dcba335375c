"""Simulated network substrate: discrete-event clock, links, UDP, multicast.

Replaces the paper's physical LAN testbed with a reproducible packet-level
simulator (see DESIGN.md §3 for the substitution argument).
"""

from .clock import Event, Scheduler, SimClock, SimulationError
from .simnet import (
    Address,
    CastPlan,
    Link,
    Network,
    NetworkError,
    Node,
    Packet,
    PortInUseError,
)
from .udp import DatagramSocket, DatagramTransport
from .multicast import MulticastGroup, MulticastSocket
from .routing import MulticastFabric, Router, RoutingError, TrustDomain
from .faults import (
    AgentCrash,
    BurstLoss,
    ChaosController,
    Corruption,
    Duplication,
    FaultPlan,
    FaultPlanError,
    LatencySpike,
    LinkFlap,
    Partition,
    Reordering,
)

__all__ = [
    "Event",
    "Scheduler",
    "SimClock",
    "SimulationError",
    "Address",
    "CastPlan",
    "Link",
    "Network",
    "NetworkError",
    "Node",
    "Packet",
    "PortInUseError",
    "DatagramSocket",
    "DatagramTransport",
    "MulticastGroup",
    "MulticastSocket",
    "MulticastFabric",
    "Router",
    "RoutingError",
    "TrustDomain",
    "AgentCrash",
    "BurstLoss",
    "ChaosController",
    "Corruption",
    "Duplication",
    "FaultPlan",
    "FaultPlanError",
    "LatencySpike",
    "LinkFlap",
    "Partition",
    "Reordering",
]
