"""SNMPv2c trap support: asynchronous agent → manager notifications.

Polling (the paper's mode) costs a round trip per cycle; traps let the
embedded extension agent *push* a notification the moment an
instrumented parameter crosses a threshold, which turns the adaptation
loop event-driven.  Implements the v2c SNMPv2-Trap PDU (tag 0xA7): a
one-way message whose varbind list leads with ``sysUpTime.0`` and
``snmpTrapOID.0`` per RFC 3416.

* :class:`TrapSender` — agent side; :meth:`send` fires one trap.
* :class:`ThresholdWatch` — periodically samples an instrumentation
  routine and traps on threshold crossings (both directions, with
  hysteresis via re-arm semantics: one trap per crossing, not per tick).
* :class:`TrapListener` — manager side; decodes traps on port 162 and
  dispatches to a callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..network.clock import Event, Scheduler
from ..network.simnet import Network
from ..network.udp import DatagramSocket
from .ber import BerError, Gauge32, ObjectIdentifierValue, TimeTicks
from .errors import SnmpProtocolError
from .oids import MIB2, OID
from .pdu import PDU_TRAP_V2, TRAP_PORT, VERSION_2C, SnmpMessage, VarBind

__all__ = ["PDU_TRAP_V2", "TRAP_PORT", "snmpTrapOID", "TrapSender", "ThresholdWatch", "TrapListener", "Notification"]

#: snmpTrapOID.0 — names which trap this is.
snmpTrapOID = OID("1.3.6.1.6.3.1.1.4.1.0")
#: Virtual seconds between a :class:`ThresholdWatch`'s samples.
CHECK_INTERVAL = 0.5


@dataclass(frozen=True)
class Notification:
    """A decoded trap as handed to the listener callback."""

    source: tuple[str, int]
    uptime_ticks: int
    trap_oid: OID
    varbinds: tuple[VarBind, ...]


class TrapSender:
    """Agent-side trap emission."""

    def __init__(self, network: Network, host: str, community: str = "public") -> None:
        self._sock = DatagramSocket(network, host)
        self._sock.bind_ephemeral()
        self.network = network
        self.community = community
        self._request_id = 1
        self.traps_sent = 0

    def send(
        self,
        dest: tuple[str, int],
        trap_oid: OID,
        varbinds: list[VarBind],
        uptime_ticks: Optional[int] = None,
    ) -> bool:
        """Fire one SNMPv2-Trap (no acknowledgement, like the real thing)."""
        if uptime_ticks is None:
            uptime_ticks = int(self.network.scheduler.clock.now * 100) % 2**32
        vbs = ((MIB2.sysUpTime, TimeTicks(uptime_ticks)), (snmpTrapOID, trap_oid.to_ber()), *varbinds)
        message = SnmpMessage(VERSION_2C, self.community, PDU_TRAP_V2, self._request_id, 0, 0, vbs)
        self._request_id += 1
        self.traps_sent += 1
        return self._sock.sendto(message.to_bytes(), dest)

    def close(self) -> None:
        self._sock.close()


class ThresholdWatch:
    """Samples an instrumentation routine every :data:`CHECK_INTERVAL`
    seconds; traps on threshold crossings.

    One trap fires when the value first crosses ``threshold`` in the
    watched direction and the watch then disarms until the value returns
    to the safe side — so a parameter parked above threshold produces one
    notification, not a flood.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        sender: TrapSender,
        dest: tuple[str, int],
        oid: OID,
        sample: Callable[[], float],
        threshold: float,
        trap_oid: OID,
        direction: str = "above",
    ) -> None:
        if direction not in ("above", "below"):
            raise ValueError("direction must be 'above' or 'below'")
        self.scheduler = scheduler
        self.sender = sender
        self.dest = dest
        self.oid = oid
        self.sample = sample
        self.threshold = threshold
        self.trap_oid = trap_oid
        self.direction = direction
        self.interval = CHECK_INTERVAL
        self._armed = True
        #: the pending check while running, else ``None``
        self._pending: Optional[Event] = None
        self.crossings = 0

    def _breached(self, value: float) -> bool:
        return value > self.threshold if self.direction == "above" else value < self.threshold

    def check(self) -> bool:
        """Sample once; trap if newly breached.  Returns whether fired."""
        value = float(self.sample())
        if self._breached(value):
            if self._armed:
                self._armed = False
                self.crossings += 1
                self.sender.send(self.dest, self.trap_oid, [(self.oid, Gauge32(int(round(value))))])
                return True
        else:
            self._armed = True
        return False

    def start(self) -> None:
        """Begin periodic checks on the scheduler (idempotent)."""
        if self._pending is None:
            self._pending = self.scheduler.call_after(self.interval, self._tick)

    def _tick(self) -> None:
        self.check()
        self._pending = self.scheduler.call_after(self.interval, self._tick)

    def stop(self) -> None:
        """End the periodic checks: the pending one is cancelled."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None


class TrapListener:
    """Manager-side trap receiver on port 162."""

    def __init__(
        self,
        network: Network,
        host: str,
        on_trap: Callable[[Notification], None],
        community: str = "public",
    ) -> None:
        self._sock = DatagramSocket(network, host)
        self._sock.bind(TRAP_PORT)
        self._sock.on_receive = self._on_datagram
        self.on_trap = on_trap
        self.community = community
        self.traps_received = 0
        self.decode_failures = 0

    def _on_datagram(self, data: bytes, src: tuple[str, int]) -> None:
        try:
            message = SnmpMessage.from_bytes(data)
        except (BerError, SnmpProtocolError):
            self.decode_failures += 1
            return
        if message.tag != PDU_TRAP_V2:
            self.decode_failures += 1
            return
        if message.community != self.community:
            return  # silently drop wrong community
        # RFC 3416 §4.2.6: sysUpTime.0 and snmpTrapOID.0 lead the list
        head = message.varbinds[:2]
        if not (
            len(head) == 2
            and head[0][0] == MIB2.sysUpTime
            and isinstance(head[0][1], TimeTicks)
            and head[1][0] == snmpTrapOID
            and isinstance(head[1][1], ObjectIdentifierValue)
        ):
            self.decode_failures += 1
            return
        self.traps_received += 1
        self.on_trap(
            Notification(
                source=src,
                uptime_ticks=head[0][1].value,
                trap_oid=OID.from_ber(head[1][1]),
                varbinds=message.varbinds[2:],
            )
        )

    def close(self) -> None:
        self._sock.close()
