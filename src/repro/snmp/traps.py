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
from typing import TYPE_CHECKING, Callable, Optional

from ..network.clock import Scheduler
from ..network.simnet import Network
from ..network.udp import DatagramSocket

if TYPE_CHECKING:
    from ..messaging.transport import DatagramTransport
from .agent import VERSION_2C
from .ber import (
    BerError,
    Integer,
    ObjectIdentifierValue,
    OctetString,
    Sequence,
    TaggedPdu,
    TimeTicks,
    decode,
    encode,
)
from .oids import MIB2, OID

__all__ = ["PDU_TRAP_V2", "TRAP_PORT", "snmpTrapOID", "TrapSender", "ThresholdWatch", "TrapListener", "Notification"]

PDU_TRAP_V2 = 0xA7
TRAP_PORT = 162

#: snmpTrapOID.0 — names which trap this is.
snmpTrapOID = OID("1.3.6.1.6.3.1.1.4.1.0")


@dataclass(frozen=True)
class Notification:
    """A decoded trap as handed to the listener callback."""

    source: tuple[str, int]
    uptime_ticks: int
    trap_oid: OID
    varbinds: tuple[tuple[OID, object], ...]


class TrapSender:
    """Agent-side trap emission."""

    def __init__(
        self,
        network: Network,
        host: str,
        community: str = "public",
        socket: Optional["DatagramTransport"] = None,
    ) -> None:
        self._sock: "DatagramTransport" = (
            socket if socket is not None else DatagramSocket(network, host)
        )
        if self._sock.port is None:
            self._sock.bind_ephemeral()
        self.network = network
        self.community = community
        self._request_id = 1
        self.traps_sent = 0

    def send(
        self,
        dest: tuple[str, int],
        trap_oid: OID,
        varbinds: list[tuple[OID, object]],
        uptime_ticks: Optional[int] = None,
    ) -> bool:
        """Fire one SNMPv2-Trap (no acknowledgement, like the real thing)."""
        if uptime_ticks is None:
            uptime_ticks = int(self.network.scheduler.clock.now * 100) % 2**32
        vbs = [
            Sequence((MIB2.sysUpTime.to_ber(), TimeTicks(uptime_ticks))),
            Sequence((snmpTrapOID.to_ber(), trap_oid.to_ber())),
        ]
        vbs.extend(Sequence((oid.to_ber(), value)) for oid, value in varbinds)
        message = Sequence(
            (
                Integer(VERSION_2C),
                OctetString(self.community.encode("latin-1")),
                TaggedPdu(
                    PDU_TRAP_V2,
                    (
                        Integer(self._request_id),
                        Integer(0),
                        Integer(0),
                        Sequence(tuple(vbs)),
                    ),
                ),
            )
        )
        self._request_id += 1
        self.traps_sent += 1
        return self._sock.sendto(encode(message), dest)

    def close(self) -> None:
        self._sock.close()


class ThresholdWatch:
    """Samples an instrumentation routine; traps on threshold crossings.

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
        interval: float = 0.5,
        value_factory: Callable[[float], object] = None,
    ) -> None:
        if direction not in ("above", "below"):
            raise ValueError("direction must be 'above' or 'below'")
        from .ber import Gauge32

        self.scheduler = scheduler
        self.sender = sender
        self.dest = dest
        self.oid = oid
        self.sample = sample
        self.threshold = threshold
        self.trap_oid = trap_oid
        self.direction = direction
        self.interval = interval
        self.value_factory = value_factory or (lambda v: Gauge32(int(round(v))))
        self._armed = True
        self._running = False
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
                self.sender.send(
                    self.dest, self.trap_oid, [(self.oid, self.value_factory(value))]
                )
                return True
        else:
            self._armed = True
        return False

    def start(self) -> None:
        """Begin periodic checks on the scheduler."""
        if self._running:
            return
        self._running = True

        def tick() -> None:
            if not self._running:
                return
            self.check()
            self.scheduler.call_after(self.interval, tick)

        self.scheduler.call_after(self.interval, tick)

    def stop(self) -> None:
        self._running = False


class TrapListener:
    """Manager-side trap receiver (port 162 by default)."""

    def __init__(
        self,
        network: Network,
        host: str,
        on_trap: Callable[[Notification], None],
        community: str = "public",
        port: int = TRAP_PORT,
        socket: Optional["DatagramTransport"] = None,
    ) -> None:
        self._sock: "DatagramTransport" = (
            socket if socket is not None else DatagramSocket(network, host)
        )
        if self._sock.port is None:
            self._sock.bind(port)
        self._sock.on_receive = self._on_datagram
        self.on_trap = on_trap
        self.community = community
        self.traps_received = 0
        self.decode_failures = 0

    def _on_datagram(self, data: bytes, src: tuple[str, int]) -> None:
        try:
            msg, _ = decode(data)
            if not isinstance(msg, Sequence) or len(msg.items) != 3:
                raise BerError("bad frame")
            _version, community, pdu = msg.items
            if not isinstance(pdu, TaggedPdu) or pdu.tag_value != PDU_TRAP_V2:
                raise BerError("not a v2 trap")
            if community.value.decode("latin-1") != self.community:
                return  # silently drop wrong community
            vb_list = pdu.items[3]
            pairs = []
            for vb in vb_list.items:
                name, value = vb.items
                pairs.append((OID.from_ber(name), value))
            uptime = pairs[0][1].value if pairs else 0
            trap_oid = OID.from_ber(pairs[1][1]) if len(pairs) > 1 else OID("0.0")
            notification = Notification(
                source=src,
                uptime_ticks=uptime,
                trap_oid=trap_oid,
                varbinds=tuple(pairs[2:]),
            )
        except (BerError, AttributeError, IndexError):
            self.decode_failures += 1
            return
        self.traps_received += 1
        self.on_trap(notification)

    def close(self) -> None:
        self._sock.close()
