"""The datagram protocol the SNMP layers consume, and the wire over real OS sockets."""

import os
import socket
import subprocess
import sys

import pytest

import repro
from repro.analysis.diagnostics import DiagnosticWarning
from repro.messaging.message import SemanticMessage
from repro.messaging.serialization import encode_message
from repro.messaging.transport import SemanticWire
from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket, DatagramTransport
from ..snmp.realudp import RealUdpSocket


def _loopback_available() -> bool:
    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind(("127.0.0.1", 0))
        s.close()
        return True
    except OSError:
        return False


class TestProtocolConformance:
    def test_datagram_socket_satisfies_datagram_transport(self):
        net = Network(Scheduler(), seed=7)
        net.add_node("a")
        sock = DatagramSocket(net, "a")
        assert isinstance(sock, DatagramTransport)
        sock.close()


@pytest.mark.skipif(not _loopback_available(), reason="loopback UDP unavailable")
class TestWireOverRealUdp:
    def test_semantic_messages_over_real_udp(self):
        """Serialize, RTP-fragment, send on OS sockets, reassemble: no simulator."""
        tx, rx = RealUdpSocket(), RealUdpSocket()
        try:
            tx.bind_ephemeral()
            rx.bind_ephemeral()
            got: list[SemanticMessage] = []
            wire_tx = SemanticWire(tx.address, lambda m: None)
            wire_rx = SemanticWire(rx.address, got.append)
            rx.on_receive = lambda data, src: wire_rx.ingest(data)

            msg = SemanticMessage.create(
                "a", "role == 'medic'", body=bytes(i % 251 for i in range(3000)), kind="alert"
            )
            frags = wire_tx.send(msg, lambda data: tx.sendto(data, rx.address))
            assert frags > 1  # the body forces fragmentation
            for _ in range(frags):
                assert rx.poll(1.0)
            assert [encode_message(m) for m in got] == [encode_message(msg)]

            tx.sendto(b"garbage", rx.address)
            with pytest.warns(DiagnosticWarning):
                assert rx.poll(1.0)
            assert wire_rx.decode_failures == 1
            assert len(got) == 1
        finally:
            tx.close()
            rx.close()


_ONE_GARBAGE_DATAGRAM = """
import sys
import warnings

from repro.core.framework import CollaborationFramework
from repro.network.udp import DatagramSocket

fw = CollaborationFramework("t", objective="one garbage datagram", seed=0)
alice = fw.add_wired_client("alice")
fw.add_wired_client("bob")
alice.join()
fw.run_for(0.5)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    DatagramSocket(fw.network, "bob").sendto(b"\\x00garbage", alice.endpoint.address)
    fw.run_for(0.5)
print(alice.endpoint.decode_failures, len(caught), "repro.analysis" in sys.modules)
"""


def test_a_dropped_datagram_does_not_load_the_analyzer():
    """The drop is counted and warned about from the messaging layer
    alone: the static analyzer stays out of a running deployment."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_GARBAGE_DATAGRAM],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.split() == ["1", "1", "False"]
