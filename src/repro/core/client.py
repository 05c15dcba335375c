"""Wired client: a full peer of the collaboration session.

"A wired client joins the multicast network and becomes an active member
of the session using the three main entities of the application user
interface — the chat-area, whiteboard, or the image viewer.  The user
interface is coupled to the adaptive framework using the application
interface" (paper Sec. 4.1).

The client owns:

* its :class:`~repro.core.profiles.ClientProfile` (local, mutable);
* a :class:`~repro.messaging.transport.SemanticEndpoint` (the event
  communication module);
* the three apps plus a state repository;
* an :class:`~repro.core.inference.InferenceEngine` wired to the SNMP
  network-state interface via :meth:`monitor_and_adapt`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..apps.chat import ChatArea
from ..apps.imageviewer import ImageViewer
from ..apps.whiteboard import Whiteboard
from ..media.progressive import ImagePacketError
from ..media.sketch import Sketch, extract_sketch
from ..media.transformers import Modality, TransformerRegistry, default_registry
from ..messaging.broker import Delivery
from ..messaging.message import SemanticMessage
from ..messaging.rtp import RtpError
from ..messaging.serialization import WireError
from ..messaging.transport import SemanticEndpoint
from ..network.multicast import MulticastGroup
from ..network.simnet import Network
from ..snmp.ber import Gauge32
from ..snmp.manager import SnmpManager
from ..snmp.oids import TASSL
from ..snmp.traps import Notification, TrapListener
from ..network.udp import DatagramSocket
from .events import (
    ChatEvent,
    Event,
    HistoryRequest,
    ImagePacketEvent,
    ImageRepairRequest,
    ImageShareAnnounce,
    JoinEvent,
    LeaveEvent,
    LockGrantEvent,
    LockReleaseEvent,
    LockRequestEvent,
    ProfileUpdateEvent,
    SketchShareEvent,
    TextShareEvent,
    WhiteboardEvent,
    EventError,
    decode_event,
)
from .concurrency import LockError
from .inference import AdaptationDecision, InferenceEngine
from .contracts import QoSContract
from .policies import PolicyDatabase, default_policy_database
from .profiles import ClientProfile
from .session import Membership, SessionArchive, SessionDescriptor
from .state import StateRepository

__all__ = ["WiredClient"]


class WiredClient:
    """One wired peer: profile + apps + comm module + inference loop.

    Parameters
    ----------
    name:
        Client id; must equal its network node name.
    network / group:
        Where to attach the semantic endpoint.
    session:
        The session descriptor (selector targeting, result space).
    profile:
        Optional pre-built profile; a default participant profile is
        created otherwise (``session`` and ``role`` attributes set).
    policies / contract:
        Inference-engine configuration.
    snmp_host:
        Host whose extension agent to query in
        :meth:`monitor_and_adapt`; defaults to the client's own node.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        group: MulticastGroup,
        session: SessionDescriptor,
        profile: Optional[ClientProfile] = None,
        policies: Optional[PolicyDatabase] = None,
        contract: Optional[QoSContract] = None,
        transformer_registry: Optional[TransformerRegistry] = None,
        snmp_host: Optional[str] = None,
        n_packets: int = 16,
        image_target_bpp: Optional[float] = 2.2,
    ) -> None:
        self.name = name
        self.network = network
        self.session = session
        self.profile = profile if profile is not None else ClientProfile(
            name, {"session": session.name, "role": "participant", "client_id": name}
        )
        if "session" not in self.profile:
            self.profile.update(session=session.name)
        self.scheduler = network.scheduler

        # apps + state
        self.chat = ChatArea(name)
        self.repository = StateRepository()
        self.whiteboard = Whiteboard(name, self.repository)
        self.viewer = ImageViewer(name, n_packets=n_packets, target_bpp=image_target_bpp)
        self.transformers = (
            transformer_registry if transformer_registry is not None else default_registry()
        )

        # adaptation
        self.policies = policies if policies is not None else default_policy_database()
        self.engine = InferenceEngine(self.policies, contract=contract, max_packets=n_packets)
        self.last_decision: Optional[AdaptationDecision] = None
        self.decision_log: list[tuple[float, AdaptationDecision]] = []

        # communication module
        self.endpoint = SemanticEndpoint(
            network, name, group, self.profile, self._on_delivery
        )
        self.snmp = SnmpManager(DatagramSocket(network, name), self.scheduler)
        self.snmp_host = snmp_host if snmp_host is not None else name
        #: optional aggregated poller (see :meth:`enable_network_monitoring`)
        self.netstate = None
        #: how long (virtual seconds) SNMP may stay unreachable before
        #: adaptation decisions fall back to the conservative floor
        self.stale_grace = 3.0
        self._dark_since: Optional[float] = None
        #: adaptation cycles that found the SNMP plane unreachable
        self.snmp_failures = 0
        #: last successful observation, adapted on while SNMP is dark
        self._last_observed: dict[str, float] = {}
        #: see :meth:`enable_trap_listener`
        self._trap_listener: Optional[TrapListener] = None
        self.traps_received: list[tuple[float, Notification]] = []

        # session observability
        self.membership = Membership()
        #: watchable mirrors of peers' announced profiles; observers can
        #: :meth:`~repro.core.profiles.ClientProfile.watch` an entry to be
        #: notified when that peer announces a change
        self.peer_profiles: dict[str, ClientProfile] = {}
        self.archive = SessionArchive()
        self.events_received: list[tuple[float, Event]] = []
        #: when true, this peer answers history requests from its archive
        self.serve_history = True
        #: distributed locking: exactly one session peer should be the
        #: coordinator (the paper's centralized concurrency arbitration)
        self.lock_coordinator = False
        #: object_id -> owner client_id, as announced by lock grants
        self.lock_owners: dict[str, str] = {}
        #: locks this client holds (granted by the coordinator)
        self.held_locks: set[str] = set()

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def _publish_event(self, event: Event, extra_selector: str = "") -> SemanticMessage:
        msg = event.to_message(
            sender=self.name, selector=self.session.selector_text(extra_selector)
        )
        self.endpoint.publish(msg)
        # own contributions belong in the archive too — an archivist must
        # be able to replay what *it* said, not just what it heard
        self.archive.record(self.scheduler.clock.now, msg)
        return msg

    def join(self) -> None:
        """Announce this client to the session."""
        self.membership.join(self.name, self.scheduler.clock.now)
        self._publish_event(JoinEvent(client_id=self.name, objective=self.session.objective))

    def leave(self) -> None:
        """Announce departure and detach from the group."""
        self._publish_event(LeaveEvent(client_id=self.name))
        self.membership.leave(self.name)
        self.endpoint.close()

    def send_chat(self, text: str) -> None:
        """Type a line into the chat area (rendered locally immediately)."""
        event = self.chat.compose(text)
        self.chat.on_chat(event, self.scheduler.clock.now)
        self._publish_event(event)

    def draw(self, object_id: str, points: tuple[float, ...]) -> None:
        """Draw a whiteboard stroke.

        When the session uses distributed locking and another client
        holds the object's lock, the draw is refused locally — cheaper
        than publishing an update arbitration will reject.
        """
        owner = self.lock_owners.get(object_id)
        if owner is not None and owner != self.name:
            raise LockError(f"{object_id!r} is locked by {owner}")
        event = self.whiteboard.draw(object_id, points, self.scheduler.clock.now)
        self._publish_event(event)

    def erase(self, object_id: str) -> None:
        """Erase a whiteboard object."""
        event = self.whiteboard.erase(object_id, self.scheduler.clock.now)
        self._publish_event(event)

    def share_image(self, image_id: str, image: np.ndarray) -> None:
        """Share an image through the viewer: announce + packets."""
        if not self.session.supports("image"):
            raise ValueError(f"session {self.session.name!r} does not share images")
        announce, packet_events = self.viewer.share(image_id, image)
        self._publish_event(announce)
        for pe in packet_events:
            self._publish_event(pe)

    def announce_profile_change(self, **changes: str) -> None:
        """Advertise a local profile change (e.g. modality preference)."""
        self.profile.update(**changes)
        event = ProfileUpdateEvent(
            client_id=self.name,
            changes=tuple((k, str(v)) for k, v in changes.items()),
        )
        self._publish_event(event)

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _on_delivery(self, delivery: Delivery) -> None:
        now = self.scheduler.clock.now
        msg = delivery.message
        self.archive.record(now, msg)
        try:
            event = decode_event(msg.kind, msg.body)
        except EventError:
            # undecodable event: drop and count, never abort the dispatch loop
            self.endpoint.wire.decode_failures += 1
            return
        self.events_received.append((now, event))
        try:
            self._react(event, delivery, now)
        except (RtpError, WireError, ImagePacketError):
            # a reaction that re-publishes (history replay, image repair,
            # lock grant) could not encode or fragment its answer, or an
            # image announce/packet that decoded as an event carries
            # geometry or a payload the viewer refuses: the answer or the
            # packet is lost and counted, the dispatch loop is not
            self.endpoint.wire.decode_failures += 1

    def _react(self, event: Event, delivery: Delivery, now: float) -> None:
        """Apply one decoded session event to the local apps and state."""
        msg = delivery.message
        effective_modality = delivery.result.effective_headers.get("modality")

        if isinstance(event, ChatEvent):
            self.chat.on_chat(event, now)
        elif isinstance(event, WhiteboardEvent):
            self.whiteboard.on_event(event, now)
        elif isinstance(event, ImageShareAnnounce):
            self.viewer.on_announce(event)
            preference = self.profile.get("modality")
            # degraded modality: render the in-band description as text
            if effective_modality == "text" or preference == "text":
                self.chat.on_text_share(
                    TextShareEvent(ref_id=event.image_id, text=event.description), now
                )
            elif preference == "speech":
                # synthesize the description locally (wired clients have
                # the cycles; thin clients get it done at the BS instead)
                from ..media.speech import text_to_speech

                clip = text_to_speech(event.description)
                self.repository.put(
                    f"speech/{event.image_id}", clip, timestamp=now, author=msg.sender
                )
        elif isinstance(event, ImagePacketEvent):
            if self.profile.get("modality") == "text":
                return  # text-mode clients skip image payloads entirely
            self.viewer.on_packet(event)
        elif isinstance(event, TextShareEvent):
            self.chat.on_text_share(event, now)
        elif isinstance(event, SketchShareEvent):
            # rendered sketches land in the state repository
            self.repository.put(
                f"sketch/{event.ref_id}", event.encoded, timestamp=now, author=msg.sender
            )
        elif isinstance(event, JoinEvent):
            self.membership.join(event.client_id, now)
        elif isinstance(event, LeaveEvent):
            self.membership.leave(event.client_id)
            self._revoke_departed_locks(event.client_id)
        elif isinstance(event, ProfileUpdateEvent):
            self.repository.put(
                f"peer-profile/{event.client_id}",
                dict(event.changes),
                timestamp=now,
                author=event.client_id,
            )
            peer = self.peer_profiles.get(event.client_id)
            if peer is None:
                peer = self.peer_profiles[event.client_id] = ClientProfile(event.client_id)
            peer.update(**dict(event.changes))
        elif isinstance(event, HistoryRequest):
            self._serve_history(event)
        elif isinstance(event, ImageRepairRequest):
            self._serve_image_repair(event)
        elif isinstance(event, LockRequestEvent):
            self._coordinate_lock_request(event)
        elif isinstance(event, LockReleaseEvent):
            self._coordinate_lock_release(event)
        elif isinstance(event, LockGrantEvent):
            self._on_lock_grant(event)

    # ------------------------------------------------------------------
    # session history (late joiners) and image repair
    # ------------------------------------------------------------------
    def request_history(self, since: float = 0.0, kinds: tuple[str, ...] = ()) -> None:
        """Ask archivist peers to replay the session since ``since``."""
        self._publish_event(
            HistoryRequest(client_id=self.name, since=since, kinds=kinds)
        )

    def _requester_selector(self, client_id: str) -> Optional[str]:
        """Session audience narrowed to one requester, or ``None``.

        ``client_id`` arrives off the wire and selector string literals
        have no escapes, so it is quoted with whichever quote character
        it does not contain and can only ever be compared as a value.
        An id holding both quotes is not addressable: the request is
        dropped and counted, never spliced into the expression.
        """
        quote = next((q for q in "'\"" if q not in client_id), None)
        if quote is None:
            self.endpoint.wire.decode_failures += 1
            return None
        return self.session.selector_text(f"client_id == {quote}{client_id}{quote}")

    def _serve_history(self, request: HistoryRequest) -> None:
        """Replay archived traffic, re-addressed to the requester only.

        History/control kinds are never replayed, nor is traffic the
        requester originated itself.
        """
        if not self.serve_history or request.client_id == self.name:
            return
        selector = self._requester_selector(request.client_id)
        if selector is None:
            return
        skip = {"history-request", "image-repair", "join", "leave"}
        wanted = set(request.kinds) if request.kinds else None
        replays = [
            SemanticMessage.create(
                sender=self.name,
                selector=selector,
                headers=dict(msg.headers),
                body=msg.body,
                kind=msg.kind,
            )
            for _t, msg in self.archive.replay(since=request.since)
            if msg.kind not in skip
            and msg.sender != request.client_id
            and (wanted is None or msg.kind in wanted)
        ]
        self.endpoint.publish_many(replays)

    def request_image_repair(self, image_id: str) -> tuple[int, ...]:
        """Request the packets blocking an image's reconstruction.

        Returns the packet indices requested (empty = nothing missing
        within the current budget).
        """
        view = self.viewer.viewed.get(image_id)
        if view is None:
            return ()
        budget = min(self.viewer.packet_budget, view.announce.n_packets)
        have = set(view.assembly._packets)
        missing = tuple(i for i in range(budget) if i not in have)
        if missing:
            self._publish_event(
                ImageRepairRequest(
                    client_id=self.name, image_id=image_id, packet_indices=missing
                )
            )
        return missing

    def _serve_image_repair(self, request: ImageRepairRequest) -> None:
        """Re-publish requested packets of an image this client shared."""
        prog = self.viewer.shared.get(request.image_id)
        if prog is None or request.client_id == self.name:
            return
        selector = self._requester_selector(request.client_id)
        if selector is None:
            return
        packets = prog.packets()
        repairs: list[SemanticMessage] = []
        for idx in request.packet_indices:
            if 0 <= idx < len(packets):
                event = ImagePacketEvent(
                    image_id=request.image_id,
                    packet_index=idx,
                    packet_total=packets[idx].total,
                    payload=packets[idx].to_bytes(),
                )
                repairs.append(event.to_message(sender=self.name, selector=selector))
        self.endpoint.publish_many(repairs)

    # ------------------------------------------------------------------
    # distributed object locking (session-wide concurrency control)
    # ------------------------------------------------------------------
    def request_lock(self, object_id: str) -> None:
        """Ask the session's lock coordinator for exclusive access.

        The grant arrives asynchronously as a :class:`LockGrantEvent`
        (watch :attr:`held_locks`).  A coordinator requesting its own
        lock is served locally for symmetry.
        """
        event = LockRequestEvent(client_id=self.name, object_id=object_id)
        if self.lock_coordinator:
            self._coordinate_lock_request(event)
        else:
            self._publish_event(event)

    def release_lock(self, object_id: str) -> None:
        """Release a held lock (no-op when not held)."""
        if object_id not in self.held_locks:
            return
        self.held_locks.discard(object_id)
        event = LockReleaseEvent(client_id=self.name, object_id=object_id)
        if self.lock_coordinator:
            self._coordinate_lock_release(event)
        else:
            self._publish_event(event)

    def _announce_grant(self, object_id: str, owner: str) -> None:
        grant = LockGrantEvent(client_id=owner, object_id=object_id, granted=True)
        self._publish_event(grant)
        self._on_lock_grant(grant)  # coordinator applies locally too

    def _coordinate_lock_request(self, event: LockRequestEvent) -> None:
        if not self.lock_coordinator:
            return
        granted = self.whiteboard.locks.acquire(event.object_id, event.client_id)
        if granted:
            self._announce_grant(event.object_id, event.client_id)
        # queued requests are granted on release (below)

    def _coordinate_lock_release(self, event: LockReleaseEvent) -> None:
        if not self.lock_coordinator:
            return
        try:
            next_owner = self.whiteboard.locks.release(event.object_id, event.client_id)
        except LockError:
            return  # stale/duplicate release: ignore
        if next_owner is not None:
            self._announce_grant(event.object_id, next_owner)
        else:
            self.lock_owners.pop(event.object_id, None)
            self._publish_event(
                LockGrantEvent(client_id="", object_id=event.object_id, granted=False)
            )

    def _revoke_departed_locks(self, client_id: str) -> None:
        """Revoke every lock a departed client held (Sec. 2 semantics).

        Every replica drops the leaver from its grant view immediately;
        the coordinator additionally purges the leaver from its queues
        via :meth:`~repro.core.concurrency.LockManager.drop_client` and
        announces the successor (or the free state) for each lock.
        """
        for object_id, owner in list(self.lock_owners.items()):
            if owner == client_id:
                self.lock_owners.pop(object_id, None)
        if not self.lock_coordinator:
            return
        for object_id, next_owner in self.whiteboard.locks.drop_client(client_id):
            if next_owner is not None:
                self._announce_grant(object_id, next_owner)
            else:
                self._publish_event(
                    LockGrantEvent(client_id="", object_id=object_id, granted=False)
                )

    def _on_lock_grant(self, event: LockGrantEvent) -> None:
        if event.granted and event.client_id:
            self.lock_owners[event.object_id] = event.client_id
            if event.client_id == self.name:
                self.held_locks.add(event.object_id)
        else:
            self.lock_owners.pop(event.object_id, None)

    # ------------------------------------------------------------------
    # the adaptation loop (SNMP → inference → viewer budget)
    # ------------------------------------------------------------------
    def read_system_state(self) -> dict[str, float]:
        """Query the local host's extension agent over SNMP.

        Raises :class:`~repro.snmp.errors.SnmpError` when the agent is
        unreachable; :meth:`monitor_and_adapt` handles that by falling
        back to the last known observation.
        """
        results = self.snmp.get(
            self.snmp_host, [TASSL.hostCpuLoad, TASSL.hostPageFaults, TASSL.hostFreeMemory]
        )
        values = dict(results)
        out: dict[str, float] = {}
        cpu = values.get(TASSL.hostCpuLoad)
        pf = values.get(TASSL.hostPageFaults)
        mem = values.get(TASSL.hostFreeMemory)
        if isinstance(cpu, Gauge32):
            out["cpu_load"] = float(cpu.value)
        if isinstance(pf, Gauge32):
            out["page_faults"] = float(pf.value)
        if isinstance(mem, Gauge32):
            out["free_memory_kib"] = float(mem.value)
        return out

    def enable_network_monitoring(
        self, switch: Optional[str] = None, switch_if_index: Optional[int] = None
    ) -> "NetworkStateInterface":
        """Upgrade to the aggregated network-state interface.

        Registers the full host-extension probe set (CPU, page faults,
        memory, access-link bandwidth/latency/jitter/loss) and optionally
        a switch-port speed probe.  Subsequent adaptation cycles observe
        network parameters too, so the bandwidth policy participates.
        """
        from .netstate import NetworkStateInterface

        ns = NetworkStateInterface(self.network, self.name)
        ns.add_standard_host_probes(self.snmp_host)
        if switch is not None and switch_if_index is not None:
            ns.add_switch_bandwidth_probe(switch, switch_if_index)
        self.netstate = ns
        return ns

    def enable_trap_listener(self) -> None:
        """Accept SNMP traps (port 162) and adapt immediately on each.

        Idempotent.  Received notifications are logged in
        :attr:`traps_received` for observability.
        """
        if self._trap_listener is not None:
            return

        def on_trap(notification: Notification) -> None:
            self.traps_received.append((self.scheduler.clock.now, notification))
            self.monitor_and_adapt()

        self._trap_listener = TrapListener(self.network, self.name, on_trap)

    def monitor_and_adapt(self, extra_observed: Optional[dict[str, float]] = None) -> AdaptationDecision:
        """One adaptation cycle: observe, infer, actuate.

        Returns the decision (also logged).  ``extra_observed`` lets the
        base-station / experiment layers inject network observations
        (e.g. ``sir_db``) alongside the SNMP readings.  When SNMP has
        been unreachable for longer than :attr:`stale_grace` virtual
        seconds the engine is told the plane is degraded and decides
        conservatively (see :meth:`PolicyDatabase.decide_packets`).
        """
        from ..snmp.errors import SnmpError

        now = self.scheduler.clock.now
        try:
            if self.netstate is not None:
                observed = self.netstate.poll()
            else:
                observed = self.read_system_state()
                self._dark_since = None
            self._last_observed = dict(observed)
        except SnmpError:
            # management plane unreachable: adapt on the last known state
            # (conservative — a degraded network usually means degraded
            # hosts too, and stale caution beats no decision at all)
            self.snmp_failures += 1
            if self._dark_since is None:
                self._dark_since = now
            observed = dict(self._last_observed)
        if self.netstate is not None:
            degraded = self.netstate.degraded
        else:
            degraded = (
                self._dark_since is not None and now - self._dark_since > self.stale_grace
            )
        if extra_observed:
            observed.update(extra_observed)
        decision = self.engine.infer(self.profile, observed, degraded=degraded)
        self.viewer.set_packet_budget(decision.packets)
        self.last_decision = decision
        self.decision_log.append((self.scheduler.clock.now, decision))
        return decision

    def start_adaptation_loop(self, interval: float = 1.0) -> None:
        """Schedule periodic :meth:`monitor_and_adapt` on the sim clock."""
        def tick() -> None:
            self.monitor_and_adapt()
            self.scheduler.call_after(interval, tick)

        self.scheduler.call_after(interval, tick)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every resource this client holds (idempotent)."""
        self.endpoint.close()
        self.snmp.close()
        if self.netstate is not None:
            self.netstate.close()
        if self._trap_listener is not None:
            self._trap_listener.close()
            self._trap_listener = None

    # ------------------------------------------------------------------
    def local_sketch(self, image_id: str) -> Sketch:
        """Extract a sketch from the current reconstruction of an image."""
        return extract_sketch(self.viewer.reconstruct(image_id))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WiredClient({self.name!r}, session={self.session.name!r})"
