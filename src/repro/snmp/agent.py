"""SNMP agent: serves GET over a datagram socket.

This is the "embedded extension agent that runs on each host and is
serviced by instrumentation routines" (paper Sec. 5.5).  It parses each
datagram as an :class:`~repro.snmp.pdu.SnmpMessage`, checks the community
string, reads each varbind's OID from its :class:`~repro.snmp.mib.MibTree`
and replies with a GetResponse PDU.  GET is the one request the paper's
manager makes; any other PDU is refused like undecodable bytes.
"""

from __future__ import annotations

from typing import Optional

from ..network.udp import DatagramTransport
from .ber import BerError
from .errors import ErrorStatus, SnmpProtocolError
from .mib import MibAccessError, MibTree
from .pdu import PDU_GET, PDU_RESPONSE, SNMP_PORT, SnmpMessage

__all__ = ["SnmpAgent"]


class SnmpAgent:
    """An SNMP agent bound to a host's port 161.

    Parameters
    ----------
    socket:
        A bound-or-bindable datagram endpoint — anything satisfying the
        :class:`~repro.network.udp.DatagramTransport` protocol
        (e.g. :class:`~repro.network.udp.DatagramSocket`).
    mib:
        The tree of managed objects to serve.
    read_community:
        The community string a GET must present.
    """

    def __init__(
        self,
        socket: DatagramTransport,
        mib: MibTree,
        read_community: str = "public",
        port: int = SNMP_PORT,
    ) -> None:
        self.mib = mib
        self.read_community = read_community
        self._sock = socket
        if self._sock.port is None:
            self._sock.bind(port)
        self._sock.on_receive = self._handle_datagram
        #: lifecycle flag: a crashed agent keeps its port but answers
        #: nothing (managers see pure timeouts, as with a hung daemon)
        self.alive = True
        # observability counters (themselves exportable via the MIB)
        self.requests_served = 0
        self.auth_failures = 0
        self.decode_failures = 0
        self.dropped_while_down = 0

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate an agent crash: stop servicing requests.  Idempotent."""
        self.alive = False

    def restart(self) -> None:
        """Bring a crashed agent back up.  Idempotent."""
        self.alive = True

    # ------------------------------------------------------------------
    def _handle_datagram(self, data: bytes, src: tuple[str, int]) -> None:
        if not self.alive:
            self.dropped_while_down += 1
            return
        try:
            reply = self._process(data)
        except (BerError, SnmpProtocolError):
            self.decode_failures += 1
            return  # RFC 1157: drop undecodable messages silently
        if reply is not None:
            self._sock.sendto(reply, src)

    def _process(self, data: bytes) -> Optional[bytes]:
        request = SnmpMessage.from_bytes(data)
        if request.tag != PDU_GET:
            raise SnmpProtocolError(f"unexpected PDU tag 0x{request.tag:02X}")
        if request.community != self.read_community:
            self.auth_failures += 1
            return None  # v1 behaviour: silent drop (+ authenticationFailure trap)

        self.requests_served += 1
        status = ErrorStatus.NO_ERROR
        err_index = 0
        out = []
        for i, (oid, _value) in enumerate(request.varbinds, start=1):
            try:
                out.append((oid, self.mib.get(oid)))
            except MibAccessError as exc:
                status = exc.status
                err_index = i
                # v1 error semantics: echo the request varbinds unchanged
                out = list(request.varbinds)
                break
        return SnmpMessage(
            request.version, request.community, PDU_RESPONSE, request.request_id,
            status, err_index, tuple(out),
        ).to_bytes()

    def close(self) -> None:
        """Release the agent's socket."""
        self._sock.close()
