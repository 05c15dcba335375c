"""The inference engine: profile + contract + policies + state → decision.

"The quality of service adaptation based on network and system state is
jointly provided by three components, viz. the client profile, the system
state interface and the inference engine ... It then links this
information to determine the amount of information that can be processed
on the multicast data channel.  It also activates the information
transformer" (paper Sec. 5.2).

:meth:`InferenceEngine.infer` is a pure function of its inputs so the
whole adaptation path is unit-testable; the client object wires it to the
SNMP-backed system-state interface and to the image viewer.  It decides
the packet budget and the profile's modality; the wireless tier is the
base station's decision (:meth:`~repro.core.basestation.BaseStation.evaluate_qos`),
and the transformer modules are plain functions called where the
conversion happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..media.progressive import FULL_BUDGET, PACKET_COUNTS
from .contracts import ContractViolation, QoSContract
from .policies import PolicyDatabase
from .profiles import ClientProfile

__all__ = ["AdaptationDecision", "InferenceEngine", "Modality"]

#: packet budgets the engine snaps to (paper: powers of two, 1..16)
_PACKET_STEPS = (0, *PACKET_COUNTS)


def _snap_packets(value: int) -> int:
    """Largest allowed power-of-two step <= value."""
    best = 0
    for step in _PACKET_STEPS:
        if step <= value:
            best = step
    return best


def _contract_packets(contract: QoSContract, packets: int) -> int:
    """The packet step ``contract`` lets a client accept.

    The contract's clamp is snapped down to a step; when that lands below
    the contract's floor, the next step up is granted instead if the
    contract's ceiling admits it.  Otherwise the snapped value stands
    (and is reported as a violation).
    """
    clamped = int(contract.clamp("packets", packets))
    granted = _snap_packets(clamped)
    if granted < clamped:
        up = next((s for s in _PACKET_STEPS if s >= clamped), None)
        if up is not None and contract.clamp("packets", up) == up:
            return up
    return granted


class Modality(str, Enum):
    """Media modalities the framework can carry."""

    IMAGE = "image"
    SKETCH = "sketch"
    TEXT = "text"
    SPEECH = "speech"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AdaptationDecision:
    """What the client should do right now.

    Attributes
    ----------
    packets:
        Progressive-image packets to accept (0..FULL_BUDGET).
    modality:
        The modality the client's profile asks to render.
    violations:
        Contract constraints the environment made unsatisfiable.
    reasons:
        Human-readable trace of which policies fired (observability).
    """

    packets: int
    modality: Modality
    violations: tuple[ContractViolation, ...] = ()
    reasons: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when the contract could not be fully honoured."""
        return bool(self.violations)


class InferenceEngine:
    """Policy-driven adaptation decisions.

    Parameters
    ----------
    policies:
        The policy database (see :mod:`repro.core.policies`).
    contract:
        The client's QoS contract; decision parameters are clamped into
        it and residual violations reported.
    """

    def __init__(self, policies: PolicyDatabase, contract: Optional[QoSContract] = None) -> None:
        self.policies = policies
        self.contract = contract
        self.decisions_made = 0

    # ------------------------------------------------------------------
    def infer(
        self,
        profile: ClientProfile,
        observed: dict[str, float],
        degraded: bool = False,
    ) -> AdaptationDecision:
        """Produce a decision from the current profile and system state.

        ``observed`` holds system/network parameters (``page_faults``,
        ``cpu_load``, ``bandwidth_bps``, ...); the profile contributes
        the user's modality preference.
        ``degraded`` signals that the management plane has been dark
        beyond its stale grace — the policy database then caps the
        decision at its conservative floor instead of assuming health.
        """
        self.decisions_made += 1
        reasons: list[str] = []
        if degraded:
            reasons.append("management plane dark; conservative fallback")

        # -- packet budget from system-state policies ---------------------
        policy_packets = self.policies.decide_packets(observed, degraded=degraded)
        if policy_packets is None:
            packets = FULL_BUDGET
            reasons.append("no packet policy applicable; full budget")
        else:
            packets = policy_packets
            reasons.append(f"policy packet budget {policy_packets}")
        packets = _snap_packets(int(packets))

        # -- modality from the profile's preference ------------------------
        preferred = profile.get("modality", "image")
        modality = Modality(preferred) if preferred in Modality._value2member_map_ else Modality.IMAGE
        if modality in (Modality.TEXT, Modality.SPEECH):
            reasons.append(f"profile prefers {modality.value} modality")

        # -- contract enforcement ------------------------------------------
        violations: tuple[ContractViolation, ...] = ()
        if self.contract is not None:
            granted = _contract_packets(self.contract, packets)
            if granted != packets:
                reasons.append(f"contract clamps packets {packets} -> {granted}")
            packets = granted
            violations = tuple(self.contract.violations({"packets": packets, **observed}))
            if violations:
                reasons.append("contract violations: " + "; ".join(map(str, violations)))

        return AdaptationDecision(
            packets=packets,
            modality=modality,
            violations=violations,
            reasons=tuple(reasons),
        )
