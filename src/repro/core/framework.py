"""Facade: build a complete collaboration deployment in a few calls.

Wires together the substrates the paper's testbed comprised — "several
Windows NT workstations on the local network, with one terminal
responsible for the base station functionalities, another terminal as a
wired client, and two others as wireless clients" — plus the SNMP agents,
the multicast group, and the session descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from ..snmp.traps import ThresholdWatch

from ..hosts.host import SimulatedHost
from ..hosts.snmp_binding import attach_extension_agent
from ..hosts.workload import Workload
from ..network.clock import Scheduler
from ..network.multicast import MulticastGroup
from ..network.simnet import Link, Network
from ..snmp.agent import SnmpAgent
from ..wireless.channel import NoiseModel, PathLossModel
from .basestation import RADIO_BANDWIDTH, RADIO_LATENCY, BaseStation
from .client import WiredClient
from .contracts import QoSContract
from .policies import PolicyDatabase, default_policy_database
from .profiles import ClientProfile
from .session import SessionDescriptor
from .wireless_client import WirelessClient

__all__ = ["CollaborationFramework"]

#: Default LAN characteristics (100 Mb/s switched Ethernet of the era).
LAN_BANDWIDTH = 12_500_000.0  # bytes/s
LAN_LATENCY = 0.0005


class CollaborationFramework:
    """One collaboration deployment: network + session + peers.

    Example
    -------
    >>> fw = CollaborationFramework("demo", objective="smoke test")
    >>> a = fw.add_wired_client("alice")
    >>> b = fw.add_wired_client("bob")
    >>> a.join(); b.join()
    >>> a.send_chat("hello")
    >>> _ = fw.run_for(1.0)
    >>> bob_lines = b.chat.transcript
    >>> bob_lines[-1]
    'alice: hello'
    """

    def __init__(
        self,
        session_name: str,
        objective: str = "",
        result_space: tuple[str, ...] = ("chat", "whiteboard", "image"),
        seed: int = 0,
        group_address: str = "239.40.40.1",
        group_port: int = 5004,
    ) -> None:
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler, seed=seed)
        self.session = SessionDescriptor(session_name, objective, result_space)
        self.switch = self.network.add_node("lan-switch")
        self.group = MulticastGroup(self.network, group_address, group_port)
        self.wired_clients: dict[str, WiredClient] = {}
        self.wireless_clients: dict[str, WirelessClient] = {}
        self.base_stations: dict[str, BaseStation] = {}
        self.hosts: dict[str, SimulatedHost] = {}
        self.agents: dict[str, SnmpAgent] = {}

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def _add_lan_node(
        self,
        name: str,
        bandwidth: float = LAN_BANDWIDTH,
        latency: float = LAN_LATENCY,
        jitter: float = 0.0,
        loss: float = 0.0,
    ) -> Link:
        self.network.add_node(name)
        return self.network.add_link(
            name, "lan-switch", bandwidth=bandwidth, latency=latency, jitter=jitter, loss=loss
        )

    # ------------------------------------------------------------------
    # peers
    # ------------------------------------------------------------------
    def add_wired_client(
        self,
        name: str,
        profile: Optional[ClientProfile] = None,
        policies: Optional[PolicyDatabase] = None,
        contract: Optional[QoSContract] = None,
        cpu_workload: Optional[Workload] = None,
        fault_workload: Optional[Workload] = None,
        link_kwargs: Optional[dict] = None,
        **client_kwargs: Any,
    ) -> WiredClient:
        """Create a workstation: node + link + host + agent + client."""
        link = self._add_lan_node(name, **(link_kwargs or {}))
        host = SimulatedHost(
            name, self.scheduler, cpu_workload=cpu_workload, fault_workload=fault_workload
        )
        self.hosts[name] = host
        self.agents[name] = attach_extension_agent(self.network, host, access_link=link)
        client = WiredClient(
            name,
            self.network,
            self.group,
            self.session,
            profile=profile,
            policies=policies,
            contract=contract,
            **client_kwargs,
        )
        self.wired_clients[name] = client
        return client

    def add_base_station(
        self,
        name: str = "bs",
        pathloss: Optional[PathLossModel] = None,
        noise: Optional[NoiseModel] = None,
        policies: Optional[PolicyDatabase] = None,
    ) -> BaseStation:
        """Create a base station peer (its own workstation on the LAN)."""
        link = self._add_lan_node(name)
        host = SimulatedHost(name, self.scheduler)
        self.hosts[name] = host
        self.agents[name] = attach_extension_agent(self.network, host, access_link=link)
        bs = BaseStation(
            name,
            self.network,
            self.group,
            self.session,
            pathloss=pathloss,
            noise=noise,
            policies=policies,
        )
        self.base_stations[name] = bs
        return bs

    def add_wireless_client(
        self,
        name: str,
        base_station: BaseStation,
        distance: float = 100.0,
        tx_power: float = 1.0,
        profile: Optional[ClientProfile] = None,
    ) -> WirelessClient:
        """Create a wireless client: radio node + link to its BS."""
        self.network.add_node(name)
        self.network.add_link(
            name,
            base_station.name,
            bandwidth=RADIO_BANDWIDTH,
            latency=RADIO_LATENCY,
        )
        client = WirelessClient(
            name,
            self.network,
            base_station.wireless_address,
            profile=profile,
            distance=distance,
            tx_power=tx_power,
        )
        self.wireless_clients[name] = client
        base_station.attach(
            name, client.link.address, distance=distance, tx_power=tx_power
        )
        return client

    def add_threshold_trap(
        self, client: WiredClient, parameter: str, threshold: float
    ) -> ThresholdWatch:
        """Event-driven adaptation: trap the client when its host's
        ``parameter`` crosses ``threshold``; the client re-runs the
        inference engine immediately instead of waiting for the next poll.

        ``parameter`` ∈ {"cpu_load", "page_faults", "free_memory_kib"}:
        the first two trap when they rise above ``threshold``, free
        memory when it falls below.  Returns the armed
        :class:`~repro.snmp.traps.ThresholdWatch`.
        """
        from ..snmp.oids import TASSL
        from ..snmp.traps import ThresholdWatch, TrapSender

        host = self.hosts[client.snmp_host]
        param_map = {
            "cpu_load": (lambda: host.cpu_load, TASSL.hostCpuLoad, TASSL.cpuHighTrap, "above"),
            "page_faults": (
                lambda: host.page_faults,
                TASSL.hostPageFaults,
                TASSL.pageFaultHighTrap,
                "above",
            ),
            "free_memory_kib": (
                lambda: host.free_memory_kib,
                TASSL.hostFreeMemory,
                TASSL.memoryLowTrap,
                "below",
            ),
        }
        if parameter not in param_map:
            raise ValueError(f"unknown trap parameter {parameter!r}")
        sample, oid, trap_oid, direction = param_map[parameter]
        client.enable_trap_listener()
        sender = TrapSender(self.network, host.name)
        watch = ThresholdWatch(
            self.scheduler,
            sender,
            dest=(client.name, 162),
            oid=oid,
            sample=sample,
            threshold=threshold,
            trap_oid=trap_oid,
            direction=direction,
        )
        watch.start()
        return watch

    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> int:
        """Advance virtual time; returns events dispatched."""
        return self.scheduler.run_for(duration)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.clock.now
