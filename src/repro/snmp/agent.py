"""SNMP agent: services GET / GETNEXT / SET over a datagram socket.

This is the "embedded extension agent that runs on each host and is
serviced by instrumentation routines" (paper Sec. 5.5).  It parses each
datagram as an :class:`~repro.snmp.pdu.SnmpMessage`, checks the community
string, dispatches to its :class:`~repro.snmp.mib.MibTree` and replies
with a GetResponse PDU.
"""

from __future__ import annotations

from typing import Optional

from ..network.udp import DatagramTransport
from .ber import BerError, EndOfMibView
from .errors import ErrorStatus, SnmpProtocolError
from .mib import MibAccessError, MibTree
from .oids import OID
from .pdu import PDU_GET, PDU_GETBULK, PDU_GETNEXT, PDU_RESPONSE, PDU_SET, SNMP_PORT, VERSION_1, VERSION_2C
from .pdu import SnmpMessage, VarBind

__all__ = [
    "SnmpAgent", "PDU_GET", "PDU_GETNEXT", "PDU_RESPONSE", "PDU_SET", "PDU_GETBULK", "SNMP_PORT",
    "VERSION_1", "VERSION_2C",
]


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
    read_community / write_community:
        Community strings for read and write access.  SET requests must
        present the write community; GET/GETNEXT accept either.
    """

    def __init__(
        self,
        socket: DatagramTransport,
        mib: MibTree,
        read_community: str = "public",
        write_community: str = "private",
        port: int = SNMP_PORT,
    ) -> None:
        self.mib = mib
        self.read_community = read_community
        self.write_community = write_community
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
        if request.tag not in (PDU_GET, PDU_GETNEXT, PDU_SET, PDU_GETBULK):
            raise SnmpProtocolError(f"unexpected PDU tag 0x{request.tag:02X}")
        if request.tag == PDU_SET:
            allowed = (self.write_community,)
        else:
            allowed = (self.read_community, self.write_community)
        if request.community not in allowed:
            self.auth_failures += 1
            return None  # v1 behaviour: silent drop (+ authenticationFailure trap)

        self.requests_served += 1
        status = ErrorStatus.NO_ERROR
        err_index = 0
        if request.tag == PDU_GETBULK:
            # error-status/-index slots carry non-repeaters / max-repetitions
            out = self._serve_bulk(request.varbinds, max(0, request.slot1), max(0, request.slot2))
        else:
            out = []
            for i, (oid, value) in enumerate(request.varbinds, start=1):
                try:
                    if request.tag == PDU_GET:
                        out.append((oid, self.mib.get(oid)))
                    elif request.tag == PDU_GETNEXT:
                        out.append(self.mib.get_next(oid))
                    else:  # SET
                        self.mib.set(oid, value)
                        out.append((oid, value))
                except MibAccessError as exc:
                    status = exc.status
                    err_index = i
                    # v1 error semantics: echo the request varbinds unchanged
                    out = list(request.varbinds)
                    break
        response = SnmpMessage(
            request.version, request.community, PDU_RESPONSE, request.request_id, status, err_index, tuple(out)
        )
        return response.to_bytes()

    def _serve_bulk(
        self, varbinds: tuple[VarBind, ...], non_repeaters: int, max_reps: int
    ) -> list[VarBind]:
        """RFC 3416 GETBULK semantics.

        The first ``non_repeaters`` varbinds get one GETNEXT each; the
        remainder each produce up to ``max_reps`` successive GETNEXTs.
        Walking off the MIB yields ``endOfMibView`` values, never an
        error (v2c exception semantics).
        """
        out: list[VarBind] = []

        def one_next(oid: OID) -> VarBind:
            try:
                return self.mib.get_next(oid)
            except MibAccessError:
                return oid, EndOfMibView()

        for oid, _value in varbinds[:non_repeaters]:
            out.append(one_next(oid))
        for oid, _value in varbinds[non_repeaters:]:
            current = oid
            for _ in range(max_reps):
                next_oid, result = one_next(current)
                out.append((next_oid, result))
                if isinstance(result, EndOfMibView):
                    break
                current = next_oid
        return out

    def close(self) -> None:
        """Release the agent's socket."""
        self._sock.close()
