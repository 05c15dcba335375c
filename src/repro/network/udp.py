"""Datagram sockets over the simulated network.

:class:`DatagramSocket` gives higher layers (SNMP agent/manager, the
RTP-thin messaging transport) a familiar ``bind / sendto / recv`` surface
while everything underneath runs on the discrete-event simulator.  The
surface the SNMP layers consume is the :class:`DatagramTransport`
protocol; :class:`DatagramSocket` is its reference implementation, and
the tests put an OS socket behind it (``tests/snmp/realudp.py``).

Two receive styles are supported:

* **callback** — ``sock.on_receive = fn`` invokes ``fn(data, (host, port))``
  the moment a packet is delivered (virtual time), which is how the agents
  and the messaging substrate operate; and
* **queue** — without a callback, packets accumulate and ``recvfrom()``
  pops them, which is convenient in tests.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Protocol, runtime_checkable

from .simnet import Address, Network, NetworkError, Packet, PortInUseError

__all__ = ["DatagramSocket", "DatagramTransport", "EPHEMERAL_BASE", "EPHEMERAL_MAX"]

#: First port handed out by :meth:`DatagramSocket.bind_ephemeral`.
EPHEMERAL_BASE = 49152
#: Last port in the ephemeral range (inclusive).
EPHEMERAL_MAX = 65535


@runtime_checkable
class DatagramTransport(Protocol):
    """Point-to-point datagram surface (what the SNMP layers consume).

    Inbound datagrams go to ``on_receive(data, (src_host, src_port))``.
    """

    on_receive: Optional[Callable[[bytes, tuple[Address, int]], None]]
    port: Optional[int]

    def bind(self, port: int) -> None: ...

    def bind_ephemeral(self) -> int: ...

    def sendto(self, data: bytes, dest: tuple[Address, int]) -> bool: ...

    def close(self) -> None: ...


class DatagramSocket:
    """An unreliable datagram endpoint bound to a (host, port) pair.

    Example
    -------
    >>> from repro.network.clock import Scheduler
    >>> sched = Scheduler(); net = Network(sched)
    >>> _ = net.add_node("a"); _ = net.add_node("b")
    >>> _ = net.add_link("a", "b")
    >>> rx = DatagramSocket(net, "b"); rx.bind(7)
    >>> tx = DatagramSocket(net, "a"); tx.bind_ephemeral()
    49152
    >>> tx.sendto(b"ping", ("b", 7))
    True
    >>> _ = sched.run()
    >>> rx.recvfrom()
    (b'ping', ('a', 49152))
    """

    def __init__(self, network: Network, host: Address) -> None:
        self.network = network
        self.host = host
        self.port: Optional[int] = None
        self.on_receive: Optional[Callable[[bytes, tuple[Address, int]], None]] = None
        self._queue: deque[tuple[bytes, tuple[Address, int]]] = deque()
        self._closed = False
        # per-socket counters (exported via host instrumentation)
        self.sent_datagrams = 0
        self.received_datagrams = 0

    # ------------------------------------------------------------------
    def bind(self, port: int) -> None:
        """Bind to an explicit port on this socket's host."""
        if self._closed:
            raise NetworkError("socket is closed")
        if self.port is not None:
            raise NetworkError(f"socket already bound to port {self.port}")
        self.network.node(self.host).bind(port, self._deliver)
        self.port = port

    def bind_ephemeral(self) -> int:
        """Bind to a free ephemeral port; returns the port.

        Allocation starts at the host's next-port hint — shared across
        every socket on the node, so N socket creations cost O(N) probes
        total instead of rescanning from :data:`EPHEMERAL_BASE` each
        time — and wraps around the ephemeral range, which lets ports
        freed by :meth:`close` be reused once the hint comes back
        around.  Only genuine :class:`PortInUseError` conflicts are
        retried; any other :class:`NetworkError` propagates.
        """
        if self._closed:
            raise NetworkError("socket is closed")
        node = self.network.node(self.host)
        port = node.ephemeral_hint
        if not (EPHEMERAL_BASE <= port <= EPHEMERAL_MAX):
            port = EPHEMERAL_BASE
        first = port
        while True:
            try:
                node.bind(port, self._deliver)
            except PortInUseError:
                port = port + 1 if port < EPHEMERAL_MAX else EPHEMERAL_BASE
                if port == first:
                    raise NetworkError("ephemeral port space exhausted") from None
                continue
            node.ephemeral_hint = port + 1 if port < EPHEMERAL_MAX else EPHEMERAL_BASE
            self.port = port
            return port

    def close(self) -> None:
        """Release the port binding.  Idempotent."""
        if self.port is not None:
            self.network.node(self.host).unbind(self.port)
            self.port = None
        self._closed = True

    # ------------------------------------------------------------------
    def sendto(self, data: bytes, dest: tuple[Address, int]) -> bool:
        """Send ``data`` to ``(host, port)``.

        A bound source port is required so that replies can find their way
        back (the SNMP manager depends on this).  Returns ``False`` when
        the simulator dropped the datagram.
        """
        if self._closed:
            raise NetworkError("socket is closed")
        if self.port is None:
            self.bind_ephemeral()
        host, port = dest
        pkt = Packet(self.host, self.port, host, port, bytes(data))
        self.sent_datagrams += 1
        return self.network.send(pkt)

    def _deliver(self, packet: Packet) -> None:
        self.received_datagrams += 1
        on_receive = self.on_receive
        if on_receive is not None:
            on_receive(packet.payload, (packet.src, packet.src_port))
        else:
            self._queue.append((packet.payload, (packet.src, packet.src_port)))

    # ------------------------------------------------------------------
    def recvfrom(self) -> Optional[tuple[bytes, tuple[Address, int]]]:
        """Pop the oldest queued datagram, or ``None`` when empty.

        Only meaningful when no ``on_receive`` callback is installed.
        """
        if self._queue:
            return self._queue.popleft()
        return None

    @property
    def pending(self) -> int:
        """Number of queued, unread datagrams."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DatagramSocket({self.host}:{self.port})"
