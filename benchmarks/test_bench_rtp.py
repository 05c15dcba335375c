"""ABL-RTP — the RTP-thin layer vs raw datagrams under loss/reorder.

"Reliable and ordered delivery of these packets is critical for
successful reconstruction" (Sec. 5.1).  Raw datagrams deliver fragments
out of order and torn; the RTP layer reassembles whole messages and
never hands up a torn one.  The bench measures completion rates and layer overhead.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.messaging.rtp import HEADER_SIZE, RtpPacketizer, RtpReassembler

PAYLOADS = 60
PAYLOAD_SIZE = 6000
MTU = 1400


def transmit(loss_rate: float, seed: int = 0):
    """Send PAYLOADS messages through a lossy, reordering channel."""
    rng = np.random.default_rng(seed)
    out = []
    packetizer = RtpPacketizer(ssrc=1, mtu=MTU)
    reassembler = RtpReassembler(lambda s, payload: out.append(payload))
    wire = []
    sent_payloads = []
    for i in range(PAYLOADS):
        payload = bytes([i % 256]) * PAYLOAD_SIZE
        sent_payloads.append(payload)
        wire.extend(f.encode() for f in packetizer.packetize(payload))
    # channel: iid loss + local reordering
    survivors = [w for w in wire if rng.random() >= loss_rate]
    for i in range(0, len(survivors) - 1, 2):
        if rng.random() < 0.3:
            survivors[i], survivors[i + 1] = survivors[i + 1], survivors[i]
    for w in survivors:
        reassembler.ingest(w)
    return sent_payloads, out, reassembler


@pytest.mark.benchmark(group="ablations")
def test_rtp_lossless_channel_complete(benchmark):
    sent, received, reassembler = run_once(benchmark, transmit, 0.0)
    assert received == sent  # all messages, in order, byte-exact
    assert not reassembler._partial and reassembler.abandoned == 0


@pytest.mark.benchmark(group="ablations")
def test_rtp_under_loss_degrades_gracefully(benchmark):
    sent, received, reassembler = run_once(benchmark, transmit, 0.05)
    # every completed message is byte-exact (no torn reassembly)
    assert all(r in sent for r in received)
    # a useful fraction still completes at 5% fragment loss
    assert len(received) >= 0.5 * len(sent)
    assert len(received) < len(sent) and reassembler._partial  # the torn ones wait, unreported
    print(f"\nloss=5%: {len(received)}/{len(sent)} messages complete")


@pytest.mark.benchmark(group="ablations")
def test_rtp_overhead_is_small(benchmark):
    """Header overhead of the thin layer on image-sized payloads."""

    def overhead():
        packetizer = RtpPacketizer(ssrc=1, mtu=MTU)
        frags = packetizer.packetize(b"x" * PAYLOAD_SIZE)
        wire_bytes = sum(len(f.encode()) for f in frags)
        return wire_bytes / PAYLOAD_SIZE

    ratio = run_once(benchmark, overhead)
    assert ratio < 1.02  # under 2% overhead


@pytest.mark.benchmark(group="ablations")
def test_raw_datagrams_tear_messages(benchmark):
    """The counterfactual: without reassembly, fragments are not messages.

    A raw-datagram consumer that naively concatenates arriving fragments
    reconstructs a corrupted byte stream as soon as anything is lost or
    reordered — quantified here as the fraction of corrupted messages.
    """

    def naive():
        rng = np.random.default_rng(1)
        packetizer = RtpPacketizer(ssrc=1, mtu=MTU)
        corrupted = 0
        for i in range(PAYLOADS):
            payload = bytes([i % 256]) * PAYLOAD_SIZE
            frags = [f.payload for f in packetizer.packetize(payload)]
            frags = [f for f in frags if rng.random() >= 0.05]
            if len(frags) >= 2 and rng.random() < 0.3:
                frags[0], frags[1] = frags[1], frags[0]
            if b"".join(frags) != payload:
                corrupted += 1
        return corrupted / PAYLOADS

    corruption = run_once(benchmark, naive)
    assert corruption > 0.1  # raw delivery is not viable for images
    print(f"\nraw datagram corruption rate at 5% loss: {corruption:.0%}")
