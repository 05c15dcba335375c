"""Multi-base-station handoff: roaming across cells.

The paper notes "the network capability may change rapidly due to link
congestion or path updates of the wireless user" — this module supplies
the path-update half.  A :class:`HandoffManager` tracks 2-D positions of
base stations and wireless clients, evaluates each client's SIR at every
station (:func:`repro.wireless.sir.sir_matrix`, interference from *all*
transmitting clients), and re-associates a client when another station
beats its current one by a hysteresis margin — including moving the
simulated radio link, detaching/attaching the BS registries, and
re-pointing the client's unicast address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..network.simnet import Network, NetworkError
from ..wireless.sir import sir_matrix, to_db
from .basestation import RADIO_BANDWIDTH, RADIO_LATENCY, BaseStation
from .wireless_client import WirelessClient

__all__ = ["Position", "HandoffEvent", "HandoffManager"]


@dataclass(frozen=True)
class Position:
    """A point in the deployment plane (metres)."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance, floored at 1 m (near-field clamp)."""
        return max(1.0, math.hypot(self.x - other.x, self.y - other.y))


@dataclass(frozen=True)
class HandoffEvent:
    """One completed re-association."""

    time: float
    client_id: str
    from_bs: str
    to_bs: str
    from_sir_db: float
    to_sir_db: float


class HandoffManager:
    """Coordinates roaming across a set of base stations.

    Parameters
    ----------
    network:
        The shared simulator (radio links are rewired on handoff).
    hysteresis_db:
        A candidate station must beat the serving one by this margin —
        prevents ping-pong at cell boundaries.
    """

    def __init__(self, network: Network, hysteresis_db: float = 3.0) -> None:
        if hysteresis_db < 0:
            raise ValueError("hysteresis must be non-negative")
        self.network = network
        self.hysteresis_db = hysteresis_db
        self._stations: dict[str, tuple[BaseStation, Position]] = {}
        self._clients: dict[str, tuple[WirelessClient, Position]] = {}
        self._serving: dict[str, str] = {}  # client_id -> bs name
        self.events: list[HandoffEvent] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_station(self, bs: BaseStation, position: Position) -> None:
        """Register a base station at a fixed position."""
        if bs.name in self._stations:
            raise ValueError(f"station {bs.name!r} already registered")
        self._stations[bs.name] = (bs, position)

    def add_client(self, client: WirelessClient, position: Position, serving_bs: str) -> None:
        """Register a roaming client currently associated to ``serving_bs``."""
        if serving_bs not in self._stations:
            raise ValueError(f"unknown station {serving_bs!r}")
        self._clients[client.name] = (client, position)
        self._serving[client.name] = serving_bs
        self._sync_distance(client.name)

    def move_client(self, client_id: str, position: Position) -> None:
        """Update a client's position (mobility tick); no handoff yet."""
        client, _ = self._clients[client_id]
        self._clients[client_id] = (client, position)
        self._sync_distance(client_id)

    def serving_station(self, client_id: str) -> str:
        """Name of the BS currently serving ``client_id``."""
        return self._serving[client_id]

    def _sync_distance(self, client_id: str) -> None:
        """Push the geometric distance into the serving BS's attachment."""
        client, pos = self._clients[client_id]
        bs_name = self._serving[client_id]
        bs, bs_pos = self._stations[bs_name]
        d = pos.distance_to(bs_pos)
        client.distance = d
        if client_id in bs.attachments:
            bs.update_attachment(client_id, distance=d)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self) -> dict[str, dict[str, float]]:
        """Per-client SIR (dB) at every station, interference-aware.

        All registered clients transmit; station *b* hears client *j*
        with gain from their geometric distance; everyone else attached
        anywhere is interference at that station.
        """
        if not self._clients or not self._stations:
            return {}
        client_ids = sorted(self._clients)
        bs_names = sorted(self._stations)
        powers = np.array([self._clients[c][0].tx_power for c in client_ids])
        G = np.empty((len(bs_names), len(client_ids)))
        for bi, bname in enumerate(bs_names):
            bs, bs_pos = self._stations[bname]
            for ci, cid in enumerate(client_ids):
                _, cpos = self._clients[cid]
                G[bi, ci] = bs.pathloss.gain(cpos.distance_to(bs_pos))
        sigma2 = np.array([self._stations[b][0].noise.sigma2 for b in bs_names])
        sir = sir_matrix(powers, G, sigma2)
        sir_db = to_db(sir)
        return {
            cid: {bname: float(sir_db[bi, ci]) for bi, bname in enumerate(bs_names)}
            for ci, cid in enumerate(client_ids)
        }

    # ------------------------------------------------------------------
    # handoff execution
    # ------------------------------------------------------------------
    def step(self) -> list[HandoffEvent]:
        """Evaluate all clients and execute any warranted handoffs."""
        table = self.evaluate()
        executed = []
        for cid in sorted(table):
            serving = self._serving[cid]
            current_sir = table[cid][serving]
            best_bs = max(table[cid], key=lambda b: table[cid][b])
            if best_bs != serving and table[cid][best_bs] >= current_sir + self.hysteresis_db:
                executed.append(self._execute(cid, serving, best_bs, current_sir, table[cid][best_bs]))
        return executed

    def _execute(
        self, client_id: str, from_bs: str, to_bs: str, from_sir: float, to_sir: float
    ) -> HandoffEvent:
        client, pos = self._clients[client_id]
        old_bs, _ = self._stations[from_bs]
        new_bs, new_pos = self._stations[to_bs]

        # 1. registry migration
        old_att = old_bs.attachments.get(client_id)
        old_bs.detach(client_id)
        d = pos.distance_to(new_pos)
        new_bs.attach(
            client_id,
            client.link.address,
            distance=d,
            tx_power=client.tx_power,
            battery=old_att.battery if old_att else client.battery,
        )

        # 2. radio link rewire (association change)
        try:
            self.network.remove_link(client.name, from_bs)
        except NetworkError:
            pass
        try:
            self.network.link(client.name, to_bs)
        except NetworkError:
            self.network.add_link(
                client.name,
                to_bs,
                bandwidth=RADIO_BANDWIDTH,
                latency=RADIO_LATENCY,
            )

        # 3. control-plane re-point
        client.bs_address = new_bs.wireless_address
        client.distance = d
        self._serving[client_id] = to_bs

        event = HandoffEvent(
            time=self.network.scheduler.clock.now,
            client_id=client_id,
            from_bs=from_bs,
            to_bs=to_bs,
            from_sir_db=from_sir,
            to_sir_db=to_sir,
        )
        self.events.append(event)
        return event

    def start_loop(self, interval: float = 1.0) -> None:
        """Periodic handoff evaluation on the simulation clock."""

        def tick() -> None:
            self.step()
            self.network.scheduler.call_after(interval, tick)

        self.network.scheduler.call_after(interval, tick)
