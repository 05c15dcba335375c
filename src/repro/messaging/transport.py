"""Networked transport: semantic messages over RTP over simulated multicast.

This is the client's *event communication module* wire path (paper
Sec. 5.3): outgoing messages are serialized, fragmented by the RTP-thin
layer and multicast; incoming fragments are reassembled, decoded, and
semantically interpreted against the local profile before anything
reaches the application.  An endpoint serves exactly one profile: each
received message is interpreted once, against it (paper Sec. 5.3).

Message ↔ RTP fragments ↔ datagram exists once, in :class:`SemanticWire`.
It has two bindings to the network: the group-attached
:class:`SemanticEndpoint`, on one
:class:`~repro.network.multicast.MulticastSocket`, and the point-to-point
:class:`UnicastSemanticLink` (base station ↔ wireless client legs), on
one :class:`~repro.network.udp.DatagramSocket`.  The wire itself needs
only a callable that puts a datagram somewhere, so it runs unchanged
over OS sockets too (the tests bind it to one, ``tests/snmp/realudp.py``).
"""

from __future__ import annotations

import warnings
import zlib
from typing import Callable, Iterable, Optional, Protocol, runtime_checkable

from ..core.matching import Decision, interpret
from ..core.profiles import ClientProfile
from ..network.multicast import MulticastGroup, MulticastSocket
from ..network.simnet import Network
from ..network.udp import DatagramSocket
from .broker import BatchPublishResult, Delivery, PublishResult, SemanticBus, Subscription
from .message import SemanticMessage
from .rtp import RtpError, RtpPacketizer, RtpReassembler
from .serialization import DiagnosticWarning, WireError, decode_message, encode_message

__all__ = [
    "BrokerAPI",
    "make_broker",
    "SemanticWire",
    "SemanticEndpoint",
    "UnicastSemanticLink",
]

#: Virtual seconds between an endpoint's housekeeping ticks.
EXPIRE_INTERVAL = 0.5


@runtime_checkable
class BrokerAPI(Protocol):
    """The contract both in-process dispatch backends satisfy.

    :class:`~repro.messaging.broker.SemanticBus` and the partitioned
    :class:`~repro.messaging.sharded.ShardedSemanticBus` conform, so
    callers pick a backend with :func:`make_broker` rather than by
    concrete class.  ``publish`` / ``publish_many`` return
    :class:`PublishResult` / :class:`BatchPublishResult`; ``exclude``
    suppresses sender loopback.
    """

    def attach(
        self, profile: ClientProfile, callback: Callable[[Delivery], None]
    ) -> Subscription: ...

    def detach(self, sub: Subscription) -> None: ...

    def publish(
        self, message: SemanticMessage, exclude: Optional[ClientProfile] = None
    ) -> PublishResult: ...

    def publish_many(self, messages: Iterable[SemanticMessage]) -> BatchPublishResult: ...

    @property
    def subscribers(self) -> int: ...

    def stats(self) -> dict: ...


def make_broker(*, shards: Optional[int] = None, indexed: bool = True) -> BrokerAPI:
    """Pick an in-process broker backend.

    ``shards`` selects the :class:`~repro.messaging.sharded.ShardedSemanticBus`
    with that many partitions; otherwise the plain
    :class:`~repro.messaging.broker.SemanticBus` is returned.  Every shard
    keeps a predicate index, so ``indexed=False`` with ``shards`` raises
    :class:`ValueError`.
    """
    if shards is None:
        return SemanticBus(indexed=indexed)
    if not indexed:
        raise ValueError("the sharded backend is always indexed; drop shards= for a linear bus")
    from .sharded import ShardedSemanticBus

    return ShardedSemanticBus(shards=shards)


class SemanticWire:
    """Message ↔ RTP fragments ↔ datagram: the wire stack, once.

    Owns an attachment's only packetizer and reassembler, their ssrc
    (derived from ``(host, port)``) and that layer's counters.  The
    binding to a fabric gives :meth:`send` the callable that puts one
    datagram on its wire and feeds received datagrams to :meth:`ingest`;
    messages that reassemble and decode arrive through ``on_message``.
    Input that does not is dropped, counted on ``decode_failures`` and
    reported as a :class:`~repro.messaging.serialization.DiagnosticWarning`,
    never raised into the fabric's dispatch loop.  :meth:`send` raises
    :class:`~repro.messaging.rtp.RtpError` or
    :class:`~repro.messaging.serialization.WireError` for a message that
    cannot be encoded or fragmented, before anything is sent or counted.
    """

    def __init__(
        self,
        address: tuple[str, int],
        on_message: Callable[[SemanticMessage], None],
    ) -> None:
        host, port = address
        self.host = host
        #: this attachment's RTP source identifier
        self.ssrc = zlib.crc32(f"{host}:{port}".encode()) & 0xFFFFFFFF
        self._packetizer = RtpPacketizer(self.ssrc)
        self.reassembler = RtpReassembler(self._on_payload)
        self._on_message = on_message
        # observability
        self.sent_messages = 0
        self.sent_fragments = 0
        #: undecodable fragments/payloads dropped at the codec boundary
        #: (owners add the event bodies they could not decode)
        self.decode_failures = 0

    def send(self, message: SemanticMessage, emit: Callable[[bytes], object]) -> int:
        """Serialize and fragment ``message``, ``emit`` each datagram; returns fragments sent."""
        fragments = self._packetizer.packetize(encode_message(message))
        for frag in fragments:
            emit(frag.encode())
        self.sent_messages += 1
        self.sent_fragments += len(fragments)
        return len(fragments)

    def ingest(self, data: bytes) -> bool:
        """Feed one received datagram; False when it was dropped as malformed."""
        try:
            self.reassembler.ingest(data)
        except RtpError:
            self.drop("an undecodable RTP fragment")
            return False
        return True

    def _on_payload(self, ssrc: int, payload: bytes) -> None:
        try:
            message = decode_message(payload)
        except WireError:
            self.drop("an undecodable message payload")
            return
        self._on_message(message)

    def drop(self, what: str) -> None:
        """Count and report wire input that must not kill the dispatch loop."""
        self.decode_failures += 1
        warnings.warn(f"endpoint {self.host}: dropped {what}", DiagnosticWarning, stacklevel=3)


class UnicastSemanticLink:
    """Point-to-point semantic message channel (client ↔ BS radio leg).

    A :class:`SemanticWire` bound to one datagram socket: no group, no
    profile — selectors are not interpreted here, the peer on the other
    side of the radio link is the only audience — and no timer.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        on_message: Callable[[SemanticMessage], None],
        port: Optional[int] = None,
    ) -> None:
        self.sock = DatagramSocket(network, host)
        if port is not None:
            self.sock.bind(port)
        else:
            self.sock.bind_ephemeral()
        self.sock.on_receive = self._on_datagram
        self.wire = SemanticWire(self.address, on_message)

    @property
    def address(self) -> tuple[str, int]:
        return (self.sock.host, self.sock.port)  # type: ignore[return-value]

    @property
    def decode_failures(self) -> int:
        """Undecodable traffic dropped on this link (see :class:`SemanticWire`)."""
        return self.wire.decode_failures

    def send(self, message: SemanticMessage, dest: tuple[str, int]) -> int:
        """Fragment and unicast one message; returns fragments sent."""
        return self.wire.send(message, lambda data: self.sock.sendto(data, dest))

    def _on_datagram(self, data: bytes, src: tuple[str, int]) -> None:
        self.wire.ingest(data)

    def close(self) -> None:
        self.sock.close()


class SemanticEndpoint:
    """One host's attachment of the semantic substrate to the network.

    Parameters
    ----------
    network, host, group:
        Where to attach: the endpoint joins ``group`` on ``host`` with its
        own :class:`~repro.network.multicast.MulticastSocket`, ``sock``.
    profile:
        The local profile all incoming messages are interpreted against.
    on_delivery:
        Application callback for accepted messages.  A message the profile
        rejects is counted in ``received_messages`` only.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        group: MulticastGroup,
        profile: ClientProfile,
        on_delivery: Callable[[Delivery], None],
    ) -> None:
        self.profile = profile
        self.on_delivery = on_delivery
        self.sock = MulticastSocket(network, host, group, on_receive=self._on_datagram)
        self.wire = SemanticWire(self.address, self._on_wire_message)
        self.scheduler = network.scheduler
        self._expire_event = self.scheduler.call_after(  # repro: ignore[EXC002]
            EXPIRE_INTERVAL, self._expire_tick
        )
        self._closed = False
        # observability (sent_*/decode_failures live on the wire)
        self.received_messages = 0
        self.accepted_messages = 0

    @property
    def ssrc(self) -> int:
        """This endpoint's RTP source identifier."""
        return self.wire.ssrc

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) other endpoints can unicast to."""
        return (self.sock.host, self.sock.local_port)

    @property
    def sent_messages(self) -> int:
        return self.wire.sent_messages

    @property
    def sent_fragments(self) -> int:
        return self.wire.sent_fragments

    @property
    def decode_failures(self) -> int:
        """Undecodable traffic dropped at this endpoint (see :class:`SemanticWire`)."""
        return self.wire.decode_failures

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def publish(self, message: SemanticMessage) -> int:
        """Multicast a message to the session; returns fragments sent.

        The endpoint never re-receives its own sends (multicast loopback
        is off).
        """
        if self._closed:
            raise RuntimeError("endpoint is closed")
        return self.wire.send(message, self.sock.send)

    def publish_many(self, messages: Iterable[SemanticMessage]) -> list[Optional[int]]:
        """Multicast a batch; returns per-message fragment counts.

        A message that cannot be encoded or fragmented yields ``None`` in
        its slot instead of aborting the rest of the batch.
        """
        out: list[Optional[int]] = []
        for message in messages:
            try:
                out.append(self.publish(message))
            except (RtpError, WireError):
                out.append(None)
        return out

    def unicast(self, message: SemanticMessage, dest: tuple[str, int]) -> int:
        """Point-to-point send (BS → wireless client leg)."""
        if self._closed:
            raise RuntimeError("endpoint is closed")
        return self.wire.send(message, lambda data: self.sock.unicast(data, dest))

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, src: tuple[str, int]) -> None:
        self.wire.ingest(data)

    def _on_wire_message(self, message: SemanticMessage) -> None:
        """Interpret one decoded message against the local profile."""
        self.received_messages += 1
        result = interpret(message.selector, message.effective_headers(), self.profile)
        if result.decision is Decision.REJECT:
            return
        self.accepted_messages += 1
        self.on_delivery(Delivery(message, result))

    def _expire_tick(self) -> None:
        # The reassembler abandons messages as traffic slides its window
        # and counts them in its monotone ``abandoned`` total, so the tick
        # has nothing to do.  The timer stays because its scheduler events
        # are pinned in bench/expected/seed0.json.
        if self._closed:
            return
        self._expire_event = self.scheduler.call_after(  # repro: ignore[EXC002]
            EXPIRE_INTERVAL, self._expire_tick
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Leave the group and stop housekeeping."""
        if not self._closed:
            self._closed = True
            self._expire_event.cancel()
            self.sock.leave()
