"""Base station: wireless gateway, control coordinator, QoS manager.

"The base station functions as the control coordinator while maintaining
the wireless client state ... maintains a profile depending on distance,
signal strength at base station, transmitting rate, and capability of the
client ... links the wireless network to the rest of the distributed
collaborative session by joining the multicast session" (paper Sec. 4.2).

Responsibilities implemented here:

* **attachment registry** — per-wireless-client channel state (distance,
  tx power, battery) and delivery address;
* **SIR evaluation** — vectorized Eq. (1) over all attached clients,
  with per-client modality-tier selection via the policy database;
* **downlink gating** — session traffic is forwarded to each wireless
  client in the richest modality its tier supports (full image /
  text+sketch / text / nothing), transforming content centrally;
* **uplink gating** — a wireless client's contribution is forwarded to
  the session in the modality its *own* uplink SIR supports ("even in a
  low throughput network condition, the BS is able to send certain
  modality of information from a wireless client to the collaboration
  network");
* **power control** — clients whose SIR exceeds the image threshold by a
  margin are asked to reduce power (battery + interference relief).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..apps.imageviewer import ImageViewer
from ..media.describe import describe_image
from ..media.progressive import ImagePacketError
from ..media.sketch import extract_sketch
from ..messaging.broker import Delivery
from ..messaging.message import SemanticMessage
from ..messaging.rtp import RtpError
from ..messaging.serialization import WireError
from ..messaging.transport import SemanticEndpoint, UnicastSemanticLink
from ..network.multicast import MulticastGroup
from ..network.simnet import Network
from ..wireless.channel import NoiseModel, PathLossModel
from ..wireless.sir import sir_db as compute_sir_db
from .events import (
    Event,
    ImagePacketEvent,
    ImageShareAnnounce,
    JoinEvent,
    LeaveEvent,
    PowerControlRequest,
    ProfileUpdateEvent,
    SketchShareEvent,
    SpeechShareEvent,
    TextShareEvent,
    EventError,
    decode_event,
)
from .policies import ModalityTier, PolicyDatabase, default_policy_database
from .profiles import ClientProfile
from .session import SessionDescriptor
from .wireless_client import reportable

__all__ = ["Attachment", "QosSnapshot", "BaseStation"]

#: Well-known port wireless clients send to on the BS node.
WIRELESS_PORT = 5100
#: The radio link between a mobile and its BS: ~11 Mb/s 802.11b, in bytes/s.
RADIO_BANDWIDTH = 1_375_000.0
#: The radio link's one-way latency, in seconds.
RADIO_LATENCY = 0.002
#: Excess SIR over the image threshold that triggers a power-down request
#: (the paper's 7 dB achieved against a 4 dB threshold: a 3 dB margin).
POWER_MARGIN_DB = 3.0
#: The least power a request asks for (``reportable``: a mobile can hold it).
MIN_POWER = 0.05


@dataclass
class Attachment:
    """BS-side record of one wireless client."""

    client_id: str
    address: tuple[str, int]
    distance: float
    tx_power: float
    battery: float = 100.0
    joined_at: float = 0.0
    sir_db: float = float("nan")
    tier: ModalityTier = ModalityTier.NOTHING
    #: BS-side mirror of the client's semantic profile; a real
    #: :class:`~repro.core.profiles.ClientProfile` so observers (e.g. a
    #: matching-engine index) can :meth:`~repro.core.profiles.ClientProfile.watch`
    #: it for change notifications.
    profile_attrs: Optional[ClientProfile] = None

    def __post_init__(self) -> None:
        if self.profile_attrs is None:
            self.profile_attrs = ClientProfile(self.client_id)


@dataclass(frozen=True)
class QosSnapshot:
    """One evaluation instant across all attached clients (FIG8–10 rows)."""

    time: float
    client_ids: tuple[str, ...]
    distances: tuple[float, ...]
    powers: tuple[float, ...]
    sir_db: tuple[float, ...]
    tiers: tuple[ModalityTier, ...]

    def for_client(self, client_id: str) -> tuple[float, ModalityTier]:
        """(sir_db, tier) of one client in this snapshot."""
        idx = self.client_ids.index(client_id)
        return self.sir_db[idx], self.tiers[idx]


class BaseStation:
    """The wireless extension's gateway peer.

    Parameters
    ----------
    name:
        BS id == its network node name.
    network / group / session:
        The collaboration session's fabric; the BS joins as a peer.
    pathloss / noise:
        Channel models for SIR evaluation (defaults: exponent-4 power law,
        noise tied to unit reference power — see DESIGN.md).
    policies:
        Tier thresholds (and anything else) come from here.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        group: MulticastGroup,
        session: SessionDescriptor,
        pathloss: Optional[PathLossModel] = None,
        noise: Optional[NoiseModel] = None,
        policies: Optional[PolicyDatabase] = None,
    ) -> None:
        self.name = name
        self.network = network
        self.scheduler = network.scheduler
        self.session = session
        self.pathloss = pathloss if pathloss is not None else PathLossModel(alpha=4.0, k=1e6)
        self.noise = noise if noise is not None else NoiseModel(reference_power=1.0, snr_ref_db=40.0)
        self.policies = policies if policies is not None else default_policy_database()

        self.profile = ClientProfile(
            name, {"session": session.name, "role": "base-station", "client_id": name}
        )
        self.endpoint = SemanticEndpoint(
            network, name, group, self.profile, self._on_session_delivery
        )
        #: the radio side: the same wire stack the mobiles run, on the
        #: well-known port they send to
        self.radio = UnicastSemanticLink(
            network, name, self._on_radio_message, port=WIRELESS_PORT
        )

        self.attachments: dict[str, Attachment] = {}
        #: events that could not be fragmented for forwarding (oversize)
        self.forward_failures = 0
        #: when true, each QoS evaluation writes SIR-derived loss onto the
        #: client's radio link (see repro.wireless.linkquality)
        self.channel_coupling = False
        #: QoS evaluations so far, and the newest one's snapshot
        self.qos_snapshots = 0
        self.last_snapshot: Optional[QosSnapshot] = None
        self.power_requests_sent = 0
        # BS keeps a full-budget viewer to reconstruct shared images for
        # centralized transformation (sketch tier)
        self.viewer = ImageViewer(name, target_bpp=None)
        self._sketched: set[str] = set()

    # ------------------------------------------------------------------
    # attachment management
    # ------------------------------------------------------------------
    @property
    def wireless_address(self) -> tuple[str, int]:
        """Where wireless clients unicast to."""
        return self.radio.address

    @property
    def decode_failures(self) -> int:
        """Undecodable uplink traffic dropped on the radio side (fragments,
        payloads and event bodies alike; the session side counts on
        ``endpoint.decode_failures`` like any wired peer)."""
        return self.radio.decode_failures

    def attach(
        self,
        client_id: str,
        address: tuple[str, int],
        distance: float,
        tx_power: float,
        battery: float = 100.0,
    ) -> Attachment:
        """Register a wireless client (its connection establishment).

        Returns the attachment record; the first :meth:`evaluate_qos`
        snapshot after this is the paper's "basic service assessment".
        """
        if distance <= 0 or tx_power <= 0:
            raise ValueError("distance and tx_power must be positive")
        att = Attachment(
            client_id=client_id,
            address=address,
            distance=float(distance),
            tx_power=float(tx_power),
            battery=battery,
            joined_at=self.scheduler.clock.now,
        )
        self.attachments[client_id] = att
        return att

    def detach(self, client_id: str) -> None:
        """Remove a wireless client (left the session / out of range)."""
        self.attachments.pop(client_id, None)

    def update_attachment(
        self,
        client_id: str,
        distance: Optional[float] = None,
        tx_power: Optional[float] = None,
        battery: Optional[float] = None,
    ) -> None:
        """Experiment/control-plane hook to mutate channel state."""
        att = self.attachments[client_id]
        if distance is not None:
            att.distance = float(distance)
        if tx_power is not None:
            att.tx_power = float(tx_power)
        if battery is not None:
            att.battery = float(battery)

    # ------------------------------------------------------------------
    # QoS evaluation (Eq. 1 + tier policy)
    # ------------------------------------------------------------------
    def evaluate_qos(self) -> QosSnapshot:
        """Compute every client's SIR and tier; record the snapshot."""
        ids = tuple(sorted(self.attachments))
        if not ids:
            snap = QosSnapshot(self.scheduler.clock.now, (), (), (), (), ())
            self.qos_snapshots += 1
            self.last_snapshot = snap
            return snap
        distances = np.array([self.attachments[c].distance for c in ids])
        powers = np.array([self.attachments[c].tx_power for c in ids])
        gains = self.pathloss.gain(distances)
        # Eq. (1); a lone client's interference is exactly 0.0, so its SIR is its SNR
        sirs = compute_sir_db(powers, np.asarray(gains), self.noise.sigma2)
        tiers = tuple(self.policies.decide_tier(float(s)) for s in sirs)
        for cid, s, t in zip(ids, sirs, tiers):
            self.attachments[cid].sir_db = float(s)
            self.attachments[cid].tier = t
        snap = QosSnapshot(
            time=self.scheduler.clock.now,
            client_ids=ids,
            distances=tuple(float(d) for d in distances),
            powers=tuple(float(p) for p in powers),
            sir_db=tuple(float(s) for s in sirs),
            tiers=tiers,
        )
        self.qos_snapshots += 1
        self.last_snapshot = snap
        if self.channel_coupling:
            self._apply_channel_coupling(snap)
        return snap

    def couple_channel(self) -> None:
        """Tie each radio link's loss rate to the client's live SIR.

        After this, every :meth:`evaluate_qos` maps SIR → BER → packet
        loss (non-coherent FSK model) onto the client↔BS link, so low-SIR
        clients physically lose fragments in addition to being tier-gated.
        """
        self.channel_coupling = True
        if self.last_snapshot is not None:
            self._apply_channel_coupling(self.last_snapshot)

    def _apply_channel_coupling(self, snap: QosSnapshot) -> None:
        """Write SIR-derived, size-dependent loss onto each radio link.

        Small frames (≤ ``ROBUST_FRAME_BYTES``) are modelled at the robust
        base rate — 802.11b-style rate fallback buys them ~10 dB of
        processing gain — so text/control renditions survive channels
        where bulk image fragments die.  ``link.loss`` is also set to the
        data-frame value for observability.
        """
        from ..network.simnet import NetworkError
        from ..wireless.linkquality import loss_for_sir_db

        ROBUST_FRAME_BYTES = 500
        for cid, s in zip(snap.client_ids, snap.sir_db):
            try:
                link = self.network.link(self.name, cid)
            except NetworkError:
                continue  # relayed/multi-hop client: no direct radio link
            data_loss = float(loss_for_sir_db(s))
            link.loss = data_loss

            def loss_fn(size: int, sir_db: float = s) -> float:
                gain = 20.0 if size <= ROBUST_FRAME_BYTES else 10.0
                return float(
                    loss_for_sir_db(sir_db, packet_bits=8 * size, coding_gain_db=gain)
                )

            link.loss_fn = loss_fn

    def apply_power_control(self) -> list[PowerControlRequest]:
        """Ask over-powered clients to transmit lower (battery + SIR).

        A client whose SIR exceeds the image threshold by more than
        :data:`POWER_MARGIN_DB` is asked to scale power down to the level
        that would sit at threshold+margin (clamped to :data:`MIN_POWER`).
        """
        snap = self.evaluate_qos()
        requests: list[PowerControlRequest] = []
        threshold = self.policies.sir_policy.image_db + POWER_MARGIN_DB
        for cid, s in zip(snap.client_ids, snap.sir_db):
            if s > threshold:
                att = self.attachments[cid]
                # lowering P_i lowers own SIR ~linearly (interference from
                # others fixed); scale to land at the threshold
                scale = 10.0 ** ((threshold - s) / 10.0)
                new_power = max(MIN_POWER, att.tx_power * scale)
                if new_power < att.tx_power * 0.999:
                    req = PowerControlRequest(
                        client_id=cid,
                        new_power=new_power,
                        reason=f"sir {s:.1f} dB above {threshold:.1f} dB target",
                    )
                    self._unicast_event(req, att.address)
                    self.power_requests_sent += 1
                    requests.append(req)
        return requests

    # ------------------------------------------------------------------
    # downlink: session → wireless clients, tier-gated
    # ------------------------------------------------------------------
    def _unicast_event(self, event: Event, dest: tuple[str, int]) -> None:
        msg = event.to_message(
            sender=self.name,
            selector="true",  # deliberate: explicit unicast dest
        )
        try:
            self.radio.send(msg, dest)
        except (RtpError, WireError):
            # one client's oversized/unencodable rendition must not break
            # the others'
            self.forward_failures += 1

    def _text_event_for(self, att: Attachment, ref_id: str, text: str) -> Event:
        """Text rendition, honouring a client's speech preference.

        "Incoming textual information can be transformed into speech if
        the profile specifies that the client has chosen speech as the
        preferred modality" (paper Sec. 5.2) — the transformation runs
        *centrally*, at the BS, sparing the thin device the work.
        """
        if att.profile_attrs.get("modality") == "speech":
            from ..media.speech import quantize_u8, text_to_speech

            clip = text_to_speech(text)
            return SpeechShareEvent(
                ref_id=ref_id,
                sample_rate=clip.sample_rate,
                samples_u8=quantize_u8(clip),
            )
        return TextShareEvent(ref_id=ref_id, text=text)

    def _forward_downlink(self, event: Event, exclude: Optional[str] = None) -> None:
        """Deliver one session event to each attachment per its tier."""
        for cid, att in sorted(self.attachments.items()):
            if cid == exclude:
                continue
            tier = att.tier
            if tier is ModalityTier.NOTHING:
                continue
            if isinstance(event, ImageShareAnnounce):
                if tier is ModalityTier.FULL_IMAGE:
                    self._unicast_event(event, att.address)
                else:  # both degraded tiers get the verbal description
                    self._unicast_event(
                        self._text_event_for(att, event.image_id, event.description),
                        att.address,
                    )
            elif isinstance(event, ImagePacketEvent):
                if tier is ModalityTier.FULL_IMAGE:
                    self._unicast_event(event, att.address)
                # sketch tier is served when the image completes (below)
            elif isinstance(event, TextShareEvent):
                self._unicast_event(
                    self._text_event_for(att, event.ref_id, event.text), att.address
                )
            else:
                # chat, whiteboard, membership: cheap, all tiers
                self._unicast_event(event, att.address)

    def _maybe_send_sketch(self, image_id: str) -> None:
        """Once the BS has the full image, serve sketch-tier clients."""
        if image_id in self._sketched:
            return
        view = self.viewer.viewed.get(image_id)
        if view is None or view.assembly.usable_prefix < view.announce.n_packets:
            return
        self._sketched.add(image_id)
        recon = self.viewer.reconstruct(image_id)
        sketch = extract_sketch(recon)
        event = SketchShareEvent(
            ref_id=image_id,
            sketch_h=sketch.shape[0],
            sketch_w=sketch.shape[1],
            encoded=sketch.encoded,
        )
        for cid, att in sorted(self.attachments.items()):
            if att.tier is ModalityTier.TEXT_AND_SKETCH:
                self._unicast_event(event, att.address)

    def _on_session_delivery(self, delivery: Delivery) -> None:
        """A multicast session event arrived at the BS peer."""
        msg = delivery.message
        try:
            event = decode_event(msg.kind, msg.body)
        except EventError:
            self.endpoint.wire.decode_failures += 1
            return
        # keep the BS's own replica of shared images (for central transforms)
        try:
            if isinstance(event, ImageShareAnnounce):
                self.viewer.on_announce(event)
            elif isinstance(event, ImagePacketEvent):
                self.viewer.on_packet(event)
                self._maybe_send_sketch(event.image_id)
        except ImagePacketError:
            # decoded as an event, refused by the viewer (geometry, payload):
            # counted, neither replicated nor forwarded
            self.endpoint.wire.decode_failures += 1
            return
        self._forward_downlink(event)

    # ------------------------------------------------------------------
    # uplink: wireless client → session, gated by the sender's SIR tier
    # ------------------------------------------------------------------
    def _on_radio_message(self, msg: SemanticMessage) -> None:
        try:
            event = decode_event(msg.kind, msg.body)
        except EventError:
            self.radio.wire.decode_failures += 1
            return
        sender = msg.sender
        if isinstance(event, ProfileUpdateEvent):
            self._handle_channel_report(event)
            return
        att = self.attachments.get(sender)
        if att is None:
            return  # not attached: drop (no service assessment yet)
        self.evaluate_qos()
        tier = self.attachments[sender].tier
        try:
            forwarded = self._gate_uplink(event, tier)
        except ImagePacketError:
            self.radio.wire.decode_failures += 1
            return
        selector = self.session.selector_text()
        outs = [fevent.to_message(sender=sender, selector=selector) for fevent in forwarded]
        # multicast the batch to the wired session; a ``None`` slot marks
        # an oversized/unencodable uplink event, which must not abort the
        # rest of the batch (nor its own downlink fan-out suppression)
        sent = self.endpoint.publish_many(outs)
        for fevent, fragments in zip(forwarded, sent):
            if fragments is None:
                self.forward_failures += 1
                continue
            # ... and unicast to the other wireless clients per their tiers
            self._forward_downlink(fevent, exclude=sender)

    def _gate_uplink(self, event: Event, tier: ModalityTier) -> list[Event]:
        """What of a client's contribution its uplink SIR lets through."""
        if tier is ModalityTier.NOTHING:
            return []
        if isinstance(event, ImageShareAnnounce):
            if tier is ModalityTier.FULL_IMAGE:
                self.viewer.on_announce(event)  # track for sketch service
                return [event]
            # degraded uplink: the text description always fits
            return [TextShareEvent(ref_id=event.image_id, text=event.description)]
        if isinstance(event, ImagePacketEvent):
            if tier is ModalityTier.FULL_IMAGE:
                self.viewer.on_packet(event)
                self._maybe_send_sketch(event.image_id)
                return [event]
            if tier is ModalityTier.TEXT_AND_SKETCH and event.packet_index == 0:
                # "If the BS receives the base image packet at SIR above
                # threshold for [sketch], it will send out [that tier]":
                # the first packet is the base-image layer; forward it as
                # a coarse rendition marker (full sketch follows when the
                # BS can reconstruct one).
                return [event]
            return []
        return [event]  # text/chat/whiteboard pass at any usable tier

    def _handle_channel_report(self, event: ProfileUpdateEvent) -> None:
        att = self.attachments.get(event.client_id)
        if att is None:
            return
        changes = dict(event.changes)
        # radio input: the whole report is dropped (and counted) unless
        # distance and power are ``reportable`` (the mobile holds no other
        # values) and battery is finite and >= 0
        try:
            state = {k: float(changes[k]) for k in ("distance", "tx_power", "battery") if k in changes}
            valid = all(
                (math.isfinite(v) and v >= 0) if k == "battery" else reportable(v) for k, v in state.items()
            )
        except ValueError:
            valid = False
        if not valid:
            self.radio.wire.decode_failures += 1
            return
        for k, v in state.items():
            setattr(att, k, v)
        att.profile_attrs.update(**changes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BaseStation({self.name!r}, attached={sorted(self.attachments)})"
