"""Real-socket SNMP tests (loopback; skipped if sockets are unavailable)."""

import socket
import threading

import pytest

from repro.snmp.ber import Gauge32, Integer, OctetString, Sequence, TaggedPdu, encode
from repro.snmp.errors import SnmpErrorResponse, SnmpTimeout
from repro.snmp.mib import MibTree
from repro.snmp.oids import MIB2, OID, TASSL
from repro.snmp.pdu import PDU_GET, PDU_RESPONSE, VERSION_2C, SnmpMessage
from .realudp import RealSnmpAgent, RealSnmpManager


def _loopback_available() -> bool:
    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind(("127.0.0.1", 0))
        s.close()
        return True
    except OSError:
        return False


pytestmark = pytest.mark.skipif(
    not _loopback_available(), reason="loopback UDP unavailable"
)


@pytest.fixture
def stack():
    tree = MibTree()
    tree.register_scalar(MIB2.sysName, OctetString(b"realhost"))
    tree.register_scalar(TASSL.hostCpuLoad, Gauge32(33))
    agent = RealSnmpAgent(tree)
    mgr = RealSnmpManager(timeout=2.0, retries=1)
    yield agent, mgr
    agent.close()
    mgr.close()


def serve_async(agent, n):
    t = threading.Thread(target=agent.serve, args=(n,), kwargs={"timeout": 3.0})
    t.start()
    return t


class TestRealWire:
    def test_get_over_loopback(self, stack):
        agent, mgr = stack
        t = serve_async(agent, 1)
        out = mgr.get(agent.address, [TASSL.hostCpuLoad])
        t.join()
        assert out[0][0] == TASSL.hostCpuLoad
        assert out[0][1].value == 33

    def test_no_such_name_over_loopback(self, stack):
        agent, mgr = stack
        t = serve_async(agent, 1)
        with pytest.raises(SnmpErrorResponse):
            mgr.get(agent.address, [OID("1.3.9.9.9.0")])
        t.join()

    def test_timeout_when_agent_silent(self, stack):
        agent, _ = stack
        mgr = RealSnmpManager(timeout=0.2, retries=0)
        try:
            with pytest.raises(SnmpTimeout):
                mgr.get(agent.address, [TASSL.hostCpuLoad])  # nobody serving
        finally:
            mgr.close()

    def test_wrong_community_ignored(self, stack):
        agent, _ = stack
        mgr = RealSnmpManager(community="wrong", timeout=0.2, retries=0)
        t = serve_async(agent, 1)
        try:
            with pytest.raises(SnmpTimeout):
                mgr.get(agent.address, [TASSL.hostCpuLoad])
        finally:
            mgr.close()
            t.join()

    def test_reply_from_another_host_is_skipped(self, stack):
        """A Response with the awaited request id from a socket that is not
        the agent does not answer the GET; the agent's own reply does."""
        agent, mgr = stack
        forged = SnmpMessage(VERSION_2C, "public", PDU_RESPONSE, 1, 0, 0, ((TASSL.hostCpuLoad, Gauge32(3)),))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as mallory:
            mallory.sendto(forged.to_bytes(), mgr._sock.address)
        t = serve_async(agent, 1)
        out = mgr.get(agent.address, [TASSL.hostCpuLoad])
        t.join()
        assert out[0][1].value == 33


def _message(community, pdu_items):
    return encode(Sequence((Integer(1), community, TaggedPdu(PDU_GET, pdu_items))))


#: well-formed BER, malformed SNMP: each escaped ``serve_once`` as an
#: uncaught exception while the real agent carried its own ``_process``
HOSTILE = {
    "two-item PDU": _message(OctetString(b"public"), (Integer(1), Integer(0))),
    "INTEGER community": _message(
        Integer(5), (Integer(1), Integer(0), Integer(0), Sequence(()))
    ),
    "non-SEQUENCE varbind": _message(
        OctetString(b"public"), (Integer(1), Integer(0), Integer(0), Sequence((Integer(7),)))
    ),
}


class TestHostileDatagrams:
    def test_dropped_and_counted_like_the_simulated_agent(self, stack):
        agent, mgr = stack
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as mallory:
            for datagram in HOSTILE.values():
                mallory.sendto(datagram, agent.address)
                assert agent.serve_once(timeout=3.0)  # handled: dropped, not raised
        assert agent.decode_failures == len(HOSTILE) == 3
        assert agent.requests_served == 0
        t = serve_async(agent, 1)
        out = mgr.get(agent.address, [TASSL.hostCpuLoad])
        t.join()
        assert out[0][1].value == 33

    def test_manager_reads_past_garbage(self, stack):
        """A datagram that is not a response does not end the attempt;
        the manager used to raise ``SnmpProtocolError("bad response")``."""
        agent, mgr = stack
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as mallory:
            mallory.sendto(b"\x00garbage", mgr._sock.address)
            mallory.sendto(HOSTILE["two-item PDU"], mgr._sock.address)
        t = serve_async(agent, 1)
        out = mgr.get(agent.address, [TASSL.hostCpuLoad])
        t.join()
        assert out[0][1].value == 33
        assert mgr.decode_failures == 2


class TestSocketLifecycle:
    """Regression (RES002/RES003): idempotent close, guarded use-after-close."""

    def test_agent_close_idempotent_and_guarded(self, stack):
        agent, _ = stack
        agent.close()
        agent.close()
        with pytest.raises(RuntimeError):
            agent.serve_once(timeout=0.01)

    def test_manager_close_idempotent_and_guarded(self, stack):
        agent, mgr = stack
        mgr.close()
        mgr.close()
        with pytest.raises(RuntimeError):
            mgr.get(agent.address, [TASSL.hostCpuLoad])
