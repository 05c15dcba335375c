"""Wireless (thin) client: joins the session through a base station.

"While wired clients directly join a collaboration session as peers,
wireless clients join through a base-station ... It maintains the
profiles of all the wireless clients connected to it and manages QoS on
their behalf" (paper Sec. 1).

The client talks *only* to its base station over a unicast semantic link
(serialized messages over the RTP-thin layer over a datagram socket).
Its radio is characterised by ``distance`` and ``tx_power``; both can
change over time (mobility, power control) and changes are reported to
the BS as control events.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..media.sketch import SketchError, decode_sketch
from ..messaging.message import SemanticMessage
from ..messaging.rtp import RtpError
from ..messaging.serialization import WireError
from ..messaging.transport import UnicastSemanticLink
from ..network.simnet import Network
from .events import (
    Event,
    ImagePacketEvent,
    ImageShareAnnounce,
    PowerControlRequest,
    ProfileUpdateEvent,
    SketchShareEvent,
    TextShareEvent,
    EventError,
    decode_event,
)
from .profiles import ClientProfile

__all__ = ["UnicastSemanticLink", "WirelessClient", "reportable", "channel_value"]


#: A mobile's battery when it joins, in percent.
FULL_BATTERY = 100.0


def reportable(value: float) -> bool:
    """Whether a channel report can carry ``value`` as a distance or power
    the base station accepts: finite and at least 1e-6, since reports give
    both to six decimals and a smaller value would read as zero."""
    return math.isfinite(value) and value >= 1e-6


def channel_value(name: str, value: float) -> float:
    """``value`` as a float, or ``ValueError`` unless it is :func:`reportable`."""
    if not reportable(value):
        raise ValueError(f"{name} must be finite and >= 1e-6, got {value!r}")
    return float(value)


class WirelessClient:
    """A thin client whose QoS the base station manages.

    Parameters
    ----------
    name:
        Client id == its network node name.
    network:
        The shared simulator (the radio is modelled as a node+link plus
        the distance/power channel state the BS evaluates).
    bs_address:
        The base station's wireless-side (host, port).
    distance / tx_power:
        Initial channel state in metres / power units.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        bs_address: tuple[str, int],
        profile: Optional[ClientProfile] = None,
        distance: float = 100.0,
        tx_power: float = 1.0,
    ) -> None:
        self.name = name
        self.network = network
        self.scheduler = network.scheduler
        self.bs_address = bs_address
        self.profile = profile if profile is not None else ClientProfile(
            name, {"role": "participant", "client_id": name, "device": "wireless"}
        )
        self.distance = channel_value("distance", distance)
        self.tx_power = channel_value("tx_power", tx_power)
        self.battery = FULL_BATTERY
        self.link = UnicastSemanticLink(network, name, self._on_message)
        # what actually reached this client, by modality
        self.received_events: list[tuple[float, Event]] = []
        self.texts: list[TextShareEvent] = []
        #: decoded sketch masks (what this client renders), by image id
        self.sketches: dict[str, np.ndarray] = {}
        self.image_packets: list[ImagePacketEvent] = []
        self.announces: list[ImageShareAnnounce] = []
        self.power_requests = 0
        self.comply_with_power_control = True

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _send_to_bs(self, event: Event) -> None:
        self.link.send(
            event.to_message(sender=self.name, selector="role == 'base-station'"),
            self.bs_address,
        )

    def report_channel_state(self) -> None:
        """Tell the BS our current distance/power (control event)."""
        self._send_to_bs(
            ProfileUpdateEvent(
                client_id=self.name,
                changes=(
                    ("distance", f"{self.distance:.6f}"),
                    ("tx_power", f"{self.tx_power:.6f}"),
                    ("battery", f"{self.battery:.2f}"),
                ),
            )
        )

    def move_to(self, distance: float) -> None:
        """Mobility: change distance from the BS and report it."""
        self.distance = channel_value("distance", distance)
        self.report_channel_state()

    def set_power(self, tx_power: float) -> None:
        """Change transmit power (device capability permitting)."""
        self.tx_power = channel_value("tx_power", tx_power)
        self.report_channel_state()

    def set_modality_preference(self, modality: str) -> None:
        """Tell the BS how to render degraded content for us.

        ``"speech"`` makes the BS transform text renditions into
        synthetic speech centrally (paper Sec. 5.2); ``"text"`` reverts.
        """
        self.profile.update(modality=modality)
        self._send_to_bs(
            ProfileUpdateEvent(
                client_id=self.name, changes=(("modality", modality),)
            )
        )

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def send_event(self, event: Event) -> None:
        """Contribute an event to the session (via the BS, unicast)."""
        # energy model: sending costs battery proportional to tx power
        self.battery = max(0.0, self.battery - 0.05 * self.tx_power)
        self._send_to_bs(event)

    def _on_message(self, message: SemanticMessage) -> None:
        now = self.scheduler.clock.now
        try:
            event = decode_event(message.kind, message.body)
        except EventError:
            self.link.wire.decode_failures += 1
            return
        self.received_events.append((now, event))
        if isinstance(event, TextShareEvent):
            self.texts.append(event)
        elif isinstance(event, SketchShareEvent):
            try:
                self.sketches[event.ref_id] = decode_sketch(
                    event.encoded, (event.sketch_h, event.sketch_w)
                )
            except SketchError:
                # a geometry or an encoding no sketch has: counted, not rendered
                self.link.wire.decode_failures += 1
        elif isinstance(event, ImagePacketEvent):
            self.image_packets.append(event)
        elif isinstance(event, ImageShareAnnounce):
            self.announces.append(event)
        elif isinstance(event, PowerControlRequest) and event.client_id == self.name:
            if not reportable(event.new_power):
                # a power no transmitter has or could report: ignored, counted
                self.link.wire.decode_failures += 1
                return
            self.power_requests += 1
            if self.comply_with_power_control:
                self.tx_power = float(event.new_power)
                try:
                    self.report_channel_state()
                except (RtpError, WireError):
                    # the report could not be encoded: it is lost and
                    # counted, the datagram callback we run in is not
                    self.link.wire.decode_failures += 1

    # ------------------------------------------------------------------
    def modality_counts(self) -> dict[str, int]:
        """How much of each modality tier reached this client."""
        return {
            "text": len(self.texts),
            "sketch": len(self.sketches),
            "image_packets": len(self.image_packets),
            "announces": len(self.announces),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WirelessClient({self.name!r}, d={self.distance:.0f}m,"
            f" P={self.tx_power:.2f}, batt={self.battery:.0f}%)"
        )
