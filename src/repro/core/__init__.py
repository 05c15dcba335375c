"""The paper's primary contribution: the adaptive QoS collaboration framework.

Semantic profiles and selectors, receiver-side interpretation, QoS
contracts, the policy-driven inference engine, wired clients, the base
station / wireless extension, and the deployment facade.
"""

from .attributes import MISSING, coerce_value, values_equal
from .selectors import Predicate, Selector, SelectorError, TRUE_SELECTOR, decompose, parse
from .profiles import ClientProfile, ProfileError, TransformRule
from .matching import Decision, MatchResult, interpret, match_selector
from .matching_engine import (
    MatchingEngine,
    ProfileIndex,
    Shortlist,
    compile_selector,
    selector_cache_info,
)
from .contracts import Constraint, ContractError, ContractViolation, QoSContract
from .policies import (
    ModalityTier,
    PolicyDatabase,
    PolicyError,
    SirTierPolicy,
    StepPolicy,
    default_bandwidth_policy,
    default_cpu_load_policy,
    default_page_fault_policy,
    default_policy_database,
    default_sir_tier_policy,
)
from .inference import AdaptationDecision, InferenceEngine
from .netstate import NetworkStateInterface, Probe
from .events import (
    ChatEvent,
    HistoryRequest,
    Event,
    EventError,
    ImagePacketEvent,
    ImageShareAnnounce,
    JoinEvent,
    LeaveEvent,
    PowerControlRequest,
    ProfileUpdateEvent,
    SketchShareEvent,
    SpeechShareEvent,
    TextShareEvent,
    WhiteboardEvent,
    decode_event,
)
from .state import StateEntry, StateRepository
from .concurrency import Arbiter, Conflict
from .session import Membership, SessionArchive, SessionDescriptor
from .client import WiredClient
from .wireless_client import UnicastSemanticLink, WirelessClient
from .basestation import Attachment, BaseStation, QosSnapshot
from .handoff import HandoffEvent, HandoffManager, Position
from .framework import CollaborationFramework
from .telemetry import deployment_report, format_report

__all__ = [
    "MISSING",
    "coerce_value",
    "values_equal",
    "Predicate",
    "Selector",
    "SelectorError",
    "TRUE_SELECTOR",
    "decompose",
    "parse",
    "ClientProfile",
    "ProfileError",
    "TransformRule",
    "Decision",
    "MatchResult",
    "interpret",
    "match_selector",
    "MatchingEngine",
    "ProfileIndex",
    "Shortlist",
    "compile_selector",
    "selector_cache_info",
    "Constraint",
    "ContractError",
    "ContractViolation",
    "QoSContract",
    "ModalityTier",
    "PolicyDatabase",
    "PolicyError",
    "SirTierPolicy",
    "StepPolicy",
    "default_bandwidth_policy",
    "default_cpu_load_policy",
    "default_page_fault_policy",
    "default_policy_database",
    "default_sir_tier_policy",
    "AdaptationDecision",
    "InferenceEngine",
    "NetworkStateInterface",
    "Probe",
    "ChatEvent",
    "HistoryRequest",
    "Event",
    "EventError",
    "ImagePacketEvent",
    "ImageShareAnnounce",
    "JoinEvent",
    "LeaveEvent",
    "PowerControlRequest",
    "ProfileUpdateEvent",
    "SketchShareEvent",
    "SpeechShareEvent",
    "TextShareEvent",
    "WhiteboardEvent",
    "decode_event",
    "StateEntry",
    "StateRepository",
    "Arbiter",
    "Conflict",
    "Membership",
    "SessionArchive",
    "SessionDescriptor",
    "WiredClient",
    "UnicastSemanticLink",
    "WirelessClient",
    "Attachment",
    "BaseStation",
    "QosSnapshot",
    "HandoffEvent",
    "HandoffManager",
    "Position",
    "CollaborationFramework",
    "deployment_report",
    "format_report",
]
