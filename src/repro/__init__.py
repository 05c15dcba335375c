"""repro — Adaptive QoS Management for Collaboration in Heterogeneous
Environments (IPPS 2002), a faithful open-source reproduction.

Public API highlights
---------------------
* :class:`repro.core.CollaborationFramework` — build a deployment:
  wired clients, base station, wireless clients.
* :mod:`repro.core` — profiles, selectors, contracts, policies, the
  inference engine, clients and the base station.
* :mod:`repro.messaging` — the semantic publisher/subscriber substrate.
* :mod:`repro.snmp` — from-scratch SNMP (BER codec, MIB, agent, manager).
* :mod:`repro.network` — the discrete-event packet network.
* :mod:`repro.wireless` — path loss, SIR (paper Eq. 1), power control.
* :mod:`repro.media` — progressive EZW image coding and the
  information-transformer modules: sketch, description, synthetic speech.
* :mod:`repro.hosts` — simulated workstations + SNMP extension agents.
* :mod:`repro.experiments` — the figure reproductions (FIG6–FIG10).
"""

from .core.framework import CollaborationFramework
from .core.profiles import ClientProfile, TransformRule
from .core.selectors import Selector
from .core.session import SessionDescriptor

__version__ = "1.0.0"

__all__ = [
    "CollaborationFramework",
    "ClientProfile",
    "TransformRule",
    "Selector",
    "SessionDescriptor",
    "__version__",
]
