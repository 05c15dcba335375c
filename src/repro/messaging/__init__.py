"""Semantic publisher/subscriber messaging substrate.

Profile-addressed multicast with an RTP-thin fragmentation / in-order
reassembly layer (loss is repaired above it, by receiver request); in-process
(:class:`SemanticBus`) and networked (:class:`SemanticEndpoint`) flavours
share the receiver-side interpretation semantics.  The networked
flavours — the endpoint and the point-to-point
:class:`UnicastSemanticLink` — share one wire stack, :class:`SemanticWire`.
"""

from .message import MessageId, SemanticMessage, next_message_id
from .serialization import WireError, decode_message, encode_message
from .rtp import (
    DEFAULT_MTU,
    RtcpReport,
    RtpError,
    RtpPacket,
    RtpPacketizer,
    RtpReassembler,
)
from .broker import BatchPublishResult, Delivery, PublishResult, SemanticBus, Subscription
from .sharded import ShardedSemanticBus, ShardSubscription
from .transport import (
    BrokerAPI,
    DatagramTransport,
    LoopbackUDP,
    SemanticEndpoint,
    SemanticWire,
    SimTransport,
    Transport,
    UnicastSemanticLink,
    make_broker,
)

__all__ = [
    "MessageId",
    "SemanticMessage",
    "next_message_id",
    "WireError",
    "decode_message",
    "encode_message",
    "DEFAULT_MTU",
    "RtcpReport",
    "RtpError",
    "RtpPacket",
    "RtpPacketizer",
    "RtpReassembler",
    "Delivery",
    "PublishResult",
    "BatchPublishResult",
    "SemanticBus",
    "Subscription",
    "ShardedSemanticBus",
    "ShardSubscription",
    "BrokerAPI",
    "make_broker",
    "Transport",
    "DatagramTransport",
    "SimTransport",
    "LoopbackUDP",
    "SemanticWire",
    "SemanticEndpoint",
    "UnicastSemanticLink",
]
