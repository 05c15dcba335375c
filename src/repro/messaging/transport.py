"""Networked transport: semantic messages over RTP over pluggable datagram fabrics.

This is the client's *event communication module* wire path (paper
Sec. 5.3): outgoing messages are serialized, fragmented by the RTP-thin
layer and multicast; incoming fragments are reassembled, decoded, and
semantically interpreted against the local profile before anything
reaches the application.  An endpoint serves exactly one profile: each
received message is interpreted once, against it (paper Sec. 5.3).

The wire fabric is abstracted behind the :class:`Transport` protocol:

* :class:`SimTransport` — the default, riding the discrete-event
  simulator's multicast groups (:mod:`repro.network`);
* :class:`LoopbackUDP` — real OS UDP sockets on 127.0.0.1 with an
  explicit peer set, proving the stack is wire-real (poll-driven, no
  threads).

:class:`SemanticEndpoint` itself only ever touches the protocol surface
(``send`` / ``unicast`` / ``close`` / ``local_address``), so any object
implementing it plugs in via :meth:`SemanticEndpoint.over_transport`.

Message ↔ RTP fragments ↔ datagram exists once, in :class:`SemanticWire`;
the group-attached :class:`SemanticEndpoint` and the point-to-point
:class:`UnicastSemanticLink` (base station ↔ wireless client legs) are
its two bindings to a fabric.
"""

from __future__ import annotations

import socket as _socketlib
import warnings
import zlib
from typing import Callable, Iterable, Optional, Protocol, runtime_checkable

from ..core.matching import Decision, interpret
from ..core.profiles import ClientProfile
from ..network.clock import Scheduler
from ..network.multicast import MulticastGroup, MulticastSocket
from ..network.simnet import Network
from ..network.udp import DatagramSocket
from .broker import BatchPublishResult, Delivery, PublishResult, SemanticBus, Subscription
from .message import SemanticMessage
from .rtp import RtpError, RtpPacketizer, RtpReassembler
from .serialization import WireError, decode_message, encode_message

__all__ = [
    "Transport",
    "DatagramTransport",
    "BrokerAPI",
    "make_broker",
    "SimTransport",
    "LoopbackUDP",
    "SemanticWire",
    "SemanticEndpoint",
    "UnicastSemanticLink",
]

#: ``on_receive`` signature shared by every transport: (payload, (host, port)).
ReceiveCallback = Callable[[bytes, tuple[str, int]], None]

#: Virtual seconds between a scheduler-driven endpoint's housekeeping ticks.
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


@runtime_checkable
class Transport(Protocol):
    """Group-capable datagram fabric the semantic endpoint runs over.

    Implementations deliver inbound datagrams by invoking the
    ``on_receive`` attribute (when set) with ``(data, (src_host, src_port))``.
    """

    on_receive: Optional[ReceiveCallback]

    @property
    def local_address(self) -> tuple[str, int]:
        """(host, port) peers can unicast replies to."""
        ...

    def send(self, data: bytes) -> int:
        """Fan ``data`` out to the whole group; returns datagrams sent."""
        ...

    def unicast(self, data: bytes, dest: tuple[str, int]) -> bool:
        """Point-to-point send; returns False when the datagram was dropped."""
        ...

    def close(self) -> None:
        """Release the underlying socket(s).  Idempotent."""
        ...


@runtime_checkable
class DatagramTransport(Protocol):
    """Point-to-point datagram surface (what the SNMP layers consume).

    :class:`repro.network.udp.DatagramSocket` satisfies this
    structurally; so would a thin wrapper over a real UDP socket.
    """

    on_receive: Optional[ReceiveCallback]
    port: Optional[int]

    def bind(self, port: int) -> None: ...

    def bind_ephemeral(self) -> int: ...

    def sendto(self, data: bytes, dest: tuple[str, int]) -> bool: ...

    def close(self) -> None: ...


class SimTransport:
    """:class:`Transport` over the simulated network's multicast fabric."""

    def __init__(
        self,
        network: Network,
        host: str,
        group: MulticastGroup,
        on_receive: Optional[ReceiveCallback] = None,
        loopback: bool = False,
    ) -> None:
        self.network = network
        self.host = host
        self.group = group
        self.on_receive = on_receive
        self._socket = MulticastSocket(
            network, host, group, on_receive=self._dispatch, loopback=loopback
        )
        self._closed = False

    @property
    def scheduler(self) -> Scheduler:
        """The simulator clock this transport runs on."""
        return self.network.scheduler

    @property
    def local_address(self) -> tuple[str, int]:
        return (self.host, self._socket.local_port)

    def _dispatch(self, data: bytes, src: tuple[str, int]) -> None:
        if self.on_receive is not None:
            self.on_receive(data, src)

    def send(self, data: bytes) -> int:
        if self._closed:
            raise RuntimeError("transport is closed")
        return self._socket.send(data)

    def unicast(self, data: bytes, dest: tuple[str, int]) -> bool:
        if self._closed:
            raise RuntimeError("transport is closed")
        return self._socket.unicast(data, dest)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._socket.leave()


class LoopbackUDP:
    """:class:`Transport` over real OS UDP sockets on the loopback device.

    Group semantics are emulated with an explicit peer set: ``send``
    unicasts to every registered peer (multicast groups on loopback are
    not portable).  Reception is poll-driven — call :meth:`poll` to
    drain ready datagrams into ``on_receive`` — so no threads are
    involved and tests stay deterministic.
    """

    def __init__(
        self,
        peers: tuple[tuple[str, int], ...] = (),
        host: str = "127.0.0.1",
        port: int = 0,
        on_receive: Optional[ReceiveCallback] = None,
    ) -> None:
        self.on_receive = on_receive
        self._sock = _socketlib.socket(_socketlib.AF_INET, _socketlib.SOCK_DGRAM)
        self._sock.bind((host, port))
        self._sock.setblocking(False)
        self.peers: list[tuple[str, int]] = list(peers)
        self._closed = False
        self.sent_datagrams = 0
        self.received_datagrams = 0

    @property
    def local_address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def add_peer(self, addr: tuple[str, int]) -> None:
        """Register a peer to fan ``send`` out to (duplicates ignored)."""
        if addr not in self.peers:
            self.peers.append(addr)

    def send(self, data: bytes) -> int:
        if self._closed:
            raise RuntimeError("transport is closed")
        me = self.local_address
        n = 0
        for peer in self.peers:
            if peer == me:
                continue  # no self-loopback, matching multicast semantics
            self._sock.sendto(data, peer)
            n += 1
        self.sent_datagrams += n
        return n

    def unicast(self, data: bytes, dest: tuple[str, int]) -> bool:
        if self._closed:
            raise RuntimeError("transport is closed")
        self._sock.sendto(data, dest)
        self.sent_datagrams += 1
        return True

    def poll(self, max_datagrams: int = 64) -> int:
        """Drain up to ``max_datagrams`` ready datagrams; returns count."""
        drained = 0
        while drained < max_datagrams:
            try:
                data, src = self._sock.recvfrom(65535)
            except BlockingIOError:
                break
            except OSError:
                break
            drained += 1
            self.received_datagrams += 1
            if self.on_receive is not None:
                self.on_receive(data, src)
        return drained

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()


class SemanticWire:
    """Message ↔ RTP fragments ↔ datagram: the wire stack, once.

    Owns an attachment's only packetizer and reassembler, their ssrc
    (derived from ``(host, port)``) and that layer's counters.  The
    binding to a fabric gives :meth:`send` the callable that puts one
    datagram on its wire and feeds received datagrams to :meth:`ingest`;
    messages that reassemble and decode arrive through ``on_message``.
    Input that does not is dropped, counted on ``decode_failures`` and
    reported as a :class:`~repro.analysis.diagnostics.DiagnosticWarning`,
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
        from ..analysis.diagnostics import DiagnosticWarning

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
        Where to attach; the endpoint joins ``group`` on ``host`` via a
        :class:`SimTransport`.  (Use :meth:`over_transport` to run on
        any other :class:`Transport`.)
    profile:
        The local profile all incoming messages are interpreted against.
    on_delivery:
        Application callback for accepted messages.
    promiscuous:
        When true, rejected messages are also surfaced (``on_rejected``) —
        the base station uses this to interpret *on behalf of* its
        wireless clients.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        group: MulticastGroup,
        profile: ClientProfile,
        on_delivery: Callable[[Delivery], None],
        on_rejected: Optional[Callable[[SemanticMessage], None]] = None,
        promiscuous: bool = False,
    ) -> None:
        self._init_over(
            SimTransport(network, host, group),
            profile,
            on_delivery,
            scheduler=network.scheduler,
            on_rejected=on_rejected,
            promiscuous=promiscuous,
        )

    @classmethod
    def over_transport(
        cls,
        transport: Transport,
        profile: ClientProfile,
        on_delivery: Callable[[Delivery], None],
        scheduler: Optional[Scheduler] = None,
        on_rejected: Optional[Callable[[SemanticMessage], None]] = None,
        promiscuous: bool = False,
    ) -> "SemanticEndpoint":
        """Build an endpoint on any :class:`Transport` implementation.

        Without a ``scheduler`` there is no periodic housekeeping tick.
        """
        self = cls.__new__(cls)
        self._init_over(
            transport,
            profile,
            on_delivery,
            scheduler=scheduler,
            on_rejected=on_rejected,
            promiscuous=promiscuous,
        )
        return self

    def _init_over(
        self,
        transport: Transport,
        profile: ClientProfile,
        on_delivery: Callable[[Delivery], None],
        scheduler: Optional[Scheduler],
        on_rejected: Optional[Callable[[SemanticMessage], None]],
        promiscuous: bool,
    ) -> None:
        self._transport = transport
        #: the simulator the transport rides, when it rides one
        self.network: Optional[Network] = getattr(transport, "network", None)
        self.profile = profile
        self.on_delivery = on_delivery
        self.on_rejected = on_rejected
        self.promiscuous = promiscuous
        self.wire = SemanticWire(transport.local_address, self._on_wire_message)
        transport.on_receive = self._on_datagram
        self.scheduler: Optional[Scheduler] = scheduler
        self._expire_event = (
            scheduler.call_after(EXPIRE_INTERVAL, self._expire_tick)  # repro: ignore[EXC002]
            if scheduler is not None
            else None
        )
        self._closed = False
        # observability (sent_*/decode_failures live on the wire)
        self.received_messages = 0
        self.accepted_messages = 0

    @property
    def transport(self) -> Transport:
        """The fabric this endpoint sends and receives on."""
        return self._transport

    @property
    def ssrc(self) -> int:
        """This endpoint's RTP source identifier."""
        return self.wire.ssrc

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) other endpoints can unicast to."""
        return self._transport.local_address

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
        return self.wire.send(message, self._transport.send)

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
        return self.wire.send(message, lambda data: self._transport.unicast(data, dest))

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
            if self.promiscuous and self.on_rejected is not None:
                self.on_rejected(message)
            return
        self.accepted_messages += 1
        self.on_delivery(Delivery(message, result))

    def _expire_tick(self) -> None:
        # The reassembler abandons messages as traffic slides its window
        # and counts them in its monotone ``abandoned`` total, so the tick
        # has nothing to do.  The timer stays because its scheduler events
        # are pinned in bench/expected/seed0.json.
        if self._closed or self.scheduler is None:
            return
        self._expire_event = self.scheduler.call_after(  # repro: ignore[EXC002]
            EXPIRE_INTERVAL, self._expire_tick
        )

    # ------------------------------------------------------------------
    def reception_report(self, ssrc: int):
        """RTCP-style stats for a peer source."""
        return self.wire.reassembler.report(ssrc)

    def close(self) -> None:
        """Leave the group and stop housekeeping."""
        if not self._closed:
            self._closed = True
            if self._expire_event is not None:
                self._expire_event.cancel()
            self._transport.close()
