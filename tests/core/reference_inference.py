"""Reference packet snapping: ``repro.core.inference`` as it was when the
engine took a ``max_packets`` ceiling, kept verbatim (imports made
absolute) as the oracle for ``tests/core/test_inference_reference.py``.
"""

from repro.core.contracts import QoSContract

#: packet budgets the engine snaps to (paper: powers of two, 1..16)
_PACKET_STEPS = (0, 1, 2, 4, 8, 16)


def _snap_packets(value: int, ceiling: int) -> int:
    """Largest allowed power-of-two step <= value (and <= ceiling)."""
    best = 0
    for step in _PACKET_STEPS:
        if step <= value and step <= ceiling:
            best = step
    return best


def _contract_packets(contract: QoSContract, packets: int, ceiling: int) -> int:
    """The packet step ``contract`` lets a client accept.

    The contract's clamp is snapped down to a step; when that lands below
    the contract's floor, the next step up is granted instead if the
    contract's ceiling and ``ceiling`` both admit it.  Otherwise the
    snapped value stands (and is reported as a violation).
    """
    clamped = int(contract.clamp("packets", packets))
    granted = _snap_packets(clamped, ceiling)
    if granted < clamped:
        up = next((s for s in _PACKET_STEPS if s >= clamped), None)
        if up is not None and up <= ceiling and contract.clamp("packets", up) == up:
            return up
    return granted
