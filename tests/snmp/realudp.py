"""Real-socket SNMP: the codec over actual OS UDP (loopback).

Everything else in the repository runs on the virtual-time simulator;
this module exists to prove the BER layer is *wire-real*.
:class:`RealUdpSocket` is an OS datagram socket behind the
:class:`~repro.network.udp.DatagramTransport` protocol, so the
very :class:`~repro.snmp.agent.SnmpAgent` the simulator runs serves a
MIB on 127.0.0.1 (:class:`RealSnmpAgent`), and a
:class:`RealSnmpManager` queries it with the same
:class:`~repro.snmp.pdu.SnmpMessage` codec, blocking on OS timeouts.
Test support (the tests that use it skip where sockets are unavailable),
also usable against third-party SNMP tools on the same host.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, Optional, Sequence as Seq

from repro.snmp.agent import SnmpAgent
from repro.snmp.ber import BerError, Null
from repro.snmp.errors import SnmpProtocolError, SnmpTimeout
from repro.snmp.mib import MibTree
from repro.snmp.oids import OID
from repro.snmp.pdu import PDU_GET, PDU_RESPONSE, VERSION_2C, SnmpMessage, VarBind

__all__ = ["RealUdpSocket", "RealSnmpAgent", "RealSnmpManager"]

Address = tuple[str, int]


class RealUdpSocket:
    """An OS UDP socket as a :class:`~repro.network.udp.DatagramTransport`.

    Poll-driven, no threads of its own: :meth:`poll` blocks up to a
    timeout for one datagram and hands it to ``on_receive``.
    """

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self.on_receive: Optional[Callable[[bytes, Address], None]] = None
        self.port: Optional[int] = None
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._closed = False

    def bind(self, port: int) -> None:
        """Bind ``(host, port)``; port 0 lets the OS pick (read :attr:`port`)."""
        self._sock.bind((self.host, port))
        self.port = self._sock.getsockname()[1]

    def bind_ephemeral(self) -> int:
        self.bind(0)
        return self.address[1]

    @property
    def address(self) -> Address:
        """The bound (host, port)."""
        return self._sock.getsockname()

    def sendto(self, data: bytes, dest: Address) -> bool:
        if self._closed:
            raise RuntimeError("socket is closed")
        self._sock.sendto(data, dest)
        return True

    def recv(self, timeout: float) -> Optional[tuple[bytes, Address]]:
        """Block up to ``timeout`` seconds for one datagram; None on timeout."""
        if self._closed:
            raise RuntimeError("socket is closed")
        self._sock.settimeout(timeout)
        try:
            return self._sock.recvfrom(65535)
        except socket.timeout:
            return None

    def poll(self, timeout: float) -> bool:
        """Deliver one datagram to ``on_receive``; False on timeout."""
        received = self.recv(timeout)
        if received is None:
            return False
        if self.on_receive is not None:
            self.on_receive(*received)
        return True

    def close(self) -> None:
        """Release the socket.  Idempotent."""
        if not self._closed:
            self._closed = True
            self._sock.close()


class RealSnmpAgent(SnmpAgent):
    """The agent, synchronously served on a real UDP socket.

    Not threaded: call :meth:`serve_once` (blocking up to ``timeout``)
    or :meth:`serve` with a request budget.  Binding port 0 lets the OS
    pick a free port (read it back from :attr:`address`).
    """

    def __init__(
        self,
        mib: MibTree,
        host: str = "127.0.0.1",
        port: int = 0,
        read_community: str = "public",
        write_community: str = "private",
    ) -> None:
        super().__init__(RealUdpSocket(host), mib, read_community, write_community, port=port)

    @property
    def address(self) -> Address:
        """The bound (host, port)."""
        return self._sock.address

    def serve_once(self, timeout: float = 1.0) -> bool:
        """Handle one datagram; returns False on timeout."""
        return self._sock.poll(timeout)

    def serve(self, n_requests: int, timeout: float = 1.0) -> int:
        """Handle up to ``n_requests``; returns how many were served."""
        served = 0
        for _ in range(n_requests):
            if not self.serve_once(timeout):
                break
            served += 1
        return served


class RealSnmpManager:
    """A blocking GET-only manager over a real UDP socket."""

    def __init__(
        self,
        community: str = "public",
        timeout: float = 1.0,
        retries: int = 1,
    ) -> None:
        self._sock = RealUdpSocket()
        self._sock.bind_ephemeral()
        self.community = community
        self.timeout = timeout
        self.retries = retries
        self._request_id = 1
        #: datagrams that were not an SNMP message, skipped while waiting
        self.decode_failures = 0

    def get(self, agent: Address, oids: Seq[OID]) -> list[VarBind]:
        """GET over the real wire."""
        request_id = self._request_id
        self._request_id += 1
        varbinds = tuple((OID(o), Null()) for o in oids)
        wire = SnmpMessage(VERSION_2C, self.community, PDU_GET, request_id, 0, 0, varbinds).to_bytes()
        for _ in range(self.retries + 1):
            self._sock.sendto(wire, agent)
            deadline = time.monotonic() + self.timeout
            # a stale reply, a reply from a host that was not asked or a
            # garbage datagram does not end the attempt: keep reading
            # until its deadline
            while (remaining := deadline - time.monotonic()) > 0:
                received = self._sock.recv(remaining)
                if received is None:
                    break
                try:
                    response = SnmpMessage.from_bytes(received[0])
                except (BerError, SnmpProtocolError):
                    self.decode_failures += 1
                    continue
                if received[1] == agent and response.tag == PDU_RESPONSE and response.request_id == request_id:
                    return response.result()
        raise SnmpTimeout(f"no response from {agent}")

    def close(self) -> None:
        """Release the socket.  Idempotent."""
        self._sock.close()
