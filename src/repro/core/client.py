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

from dataclasses import replace
from typing import Optional

import numpy as np

from ..apps.chat import ChatArea
from ..apps.imageviewer import ImageViewer
from ..apps.whiteboard import Whiteboard
from ..media.progressive import ImagePacketError
from ..messaging.broker import Delivery
from ..messaging.message import SemanticMessage
from ..messaging.rtp import RtpError
from ..messaging.serialization import WireError
from ..messaging.transport import SemanticEndpoint
from ..network import clock
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
    ImageShareAnnounce,
    JoinEvent,
    LeaveEvent,
    TextShareEvent,
    WhiteboardEvent,
    EventError,
    decode_event,
)
from .inference import AdaptationDecision, InferenceEngine
from .matching_engine import compile_selector
from .contracts import QoSContract
from .netstate import STALE_GRACE, NetworkStateInterface
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
        snmp_host: Optional[str] = None,
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
        self.viewer = ImageViewer(name, target_bpp=image_target_bpp)

        # adaptation
        self.policies = policies if policies is not None else default_policy_database()
        self.engine = InferenceEngine(self.policies, contract=contract)
        self.last_decision: Optional[AdaptationDecision] = None
        self.decision_log: list[tuple[float, AdaptationDecision]] = []
        #: the pending tick of :meth:`start_adaptation_loop`, if running
        self._adaptation_tick: Optional[clock.Event] = None

        # communication module
        self.endpoint = SemanticEndpoint(
            network, name, group, self.profile, self._on_delivery
        )
        self.snmp = SnmpManager(DatagramSocket(network, name), self.scheduler)
        self.snmp_host = snmp_host if snmp_host is not None else name
        #: optional aggregated poller (see :meth:`enable_network_monitoring`)
        self.netstate: Optional[NetworkStateInterface] = None
        self._dark_since: Optional[float] = None
        #: adaptation cycles that found the SNMP plane unreachable
        self.snmp_failures = 0
        #: last successful observation, adapted on while SNMP is dark
        self._last_observed: dict[str, float] = {}
        #: see :meth:`enable_trap_listener`
        self._trap_listener: Optional[TrapListener] = None

        # session observability
        self.membership = Membership()
        self.archive = SessionArchive()
        self.events_received: list[tuple[float, Event]] = []

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
        """Announce departure, stop adapting and detach from the group
        (idempotent)."""
        if self.endpoint.sock.closed:
            return
        self._stop_adapting()
        self._publish_event(LeaveEvent(client_id=self.name))
        self.membership.leave(self.name)
        self.endpoint.close()

    def send_chat(self, text: str) -> None:
        """Type a line into the chat area: published, then rendered locally
        (a client that has left refuses the line and renders nothing)."""
        event = self.chat.compose(text)
        self._publish_event(event)
        self.chat.on_chat(event, self.scheduler.clock.now)

    def draw(self, object_id: str, points: tuple[float, ...]) -> None:
        """Draw a whiteboard stroke."""
        event = self.whiteboard.draw(object_id, points, self.scheduler.clock.now)
        self._publish_event(event)

    def share_image(self, image_id: str, image: np.ndarray) -> None:
        """Share an image through the viewer: announce + packets."""
        if not self.session.supports("image"):
            raise ValueError(f"session {self.session.name!r} does not share images")
        announce, packet_events = self.viewer.share(image_id, image)
        self._publish_event(announce)
        for pe in packet_events:
            self._publish_event(pe)

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _on_delivery(self, delivery: Delivery) -> None:
        now = self.scheduler.clock.now
        msg = delivery.message
        if msg.msg_id in self.archive:
            return  # a history replay of a message this peer already holds
        try:
            event = decode_event(msg.kind, msg.body)
        except EventError:
            # undecodable event: drop and count, never abort the dispatch
            # loop, and keep its id free for an intact copy
            self.endpoint.wire.decode_failures += 1
            return
        self.archive.record(now, msg)
        self.events_received.append((now, event))
        try:
            self._react(event, delivery, now)
        except (RtpError, WireError, ImagePacketError):
            # a reaction that re-publishes (a history replay) could not
            # encode or fragment its answer, or an image announce/packet
            # that decoded as an event carries geometry or a payload the
            # viewer refuses: the answer or the packet is lost and
            # counted, the dispatch loop is not
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
            if effective_modality == "text" or self.profile.get("modality") == "text":
                return  # text-mode clients skip image payloads entirely
            self.viewer.on_packet(event)
        elif isinstance(event, TextShareEvent):
            self.chat.on_text_share(event, now)
        elif isinstance(event, JoinEvent):
            self.membership.join(event.client_id, now)
        elif isinstance(event, LeaveEvent):
            self.membership.leave(event.client_id)
        elif isinstance(event, HistoryRequest):
            self._serve_history(event)

    # ------------------------------------------------------------------
    # session history: the one way a peer gets back what it missed
    # ------------------------------------------------------------------
    def request_history(self, since: float = 0.0, kinds: tuple[str, ...] = ()) -> None:
        """Ask the other peers to replay the session since ``since``.

        Serves late joiners and peers that lost traffic alike: every
        peer answers from its archive, and what this peer already holds
        is dropped on arrival.
        """
        self._publish_event(
            HistoryRequest(client_id=self.name, since=since, kinds=kinds)
        )

    def _serve_history(self, request: HistoryRequest) -> None:
        """Replay archived traffic, re-addressed to the requester only.

        History/control kinds are never replayed, nor is traffic the
        requester originated itself.  A replay keeps the original
        ``msg_id``, so a requester that already holds the message (from
        the live session or from another archivist) drops it.

        ``client_id`` arrives off the wire and selector string literals
        have no escapes, so it is quoted with whichever quote character
        it does not contain and can only ever be compared as a value.
        An id holding both quotes is not addressable: the request is
        dropped and counted, never spliced into the expression.
        """
        client_id = request.client_id
        if client_id == self.name:
            return
        quote = next((q for q in "'\"" if q not in client_id), None)
        if quote is None:
            self.endpoint.wire.decode_failures += 1
            return
        selector = self.session.selector_text(f"client_id == {quote}{client_id}{quote}")
        audience = compile_selector(selector)
        skip = {"history-request", "join", "leave"}
        wanted = set(request.kinds) if request.kinds else None
        replays = [
            replace(msg, selector=audience, sender=self.name)
            for _t, msg in self.archive.replay(since=request.since)
            if msg.kind not in skip
            and msg.sender != client_id
            and (wanted is None or msg.kind in wanted)
        ]
        self.endpoint.publish_many(replays)

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
    ) -> NetworkStateInterface:
        """Upgrade to the aggregated network-state interface.

        Registers the full host-extension probe set (CPU, page faults,
        memory, access-link bandwidth/latency/jitter/loss) and optionally
        a switch-port speed probe.  Subsequent adaptation cycles observe
        network parameters too, so the bandwidth policy participates.
        """
        ns = NetworkStateInterface(self.network, self.name)
        ns.add_standard_host_probes(self.snmp_host)
        if switch is not None and switch_if_index is not None:
            ns.add_switch_bandwidth_probe(switch, switch_if_index)
        self.netstate = ns
        return ns

    def enable_trap_listener(self) -> None:
        """Accept SNMP traps (port 162) and adapt immediately on each.

        Idempotent.  The listener counts what it accepts
        (``traps_received``).
        """
        if self._trap_listener is not None:
            return

        def on_trap(_notification: Notification) -> None:
            self.monitor_and_adapt()

        self._trap_listener = TrapListener(self.network, self.name, on_trap)

    def monitor_and_adapt(self) -> AdaptationDecision:
        """One adaptation cycle: observe, infer, actuate.

        Returns the decision (also logged).  When SNMP has been
        unreachable for longer than :data:`~repro.core.netstate.STALE_GRACE`
        virtual seconds the engine is told the plane is degraded and
        decides conservatively (see :meth:`PolicyDatabase.decide_packets`).
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
            degraded = self._dark_since is not None and now - self._dark_since > STALE_GRACE
        decision = self.engine.infer(self.profile, observed, degraded=degraded)
        self.viewer.set_packet_budget(decision.packets)
        self.last_decision = decision
        self.decision_log.append((self.scheduler.clock.now, decision))
        return decision

    def start_adaptation_loop(self, interval: float = 1.0) -> None:
        """Schedule periodic :meth:`monitor_and_adapt` on the sim clock
        (until :meth:`leave` or :meth:`close`); a running loop is replaced,
        not doubled."""
        if self._adaptation_tick is not None:
            self._adaptation_tick.cancel()

        def tick() -> None:
            self.monitor_and_adapt()
            self._adaptation_tick = self.scheduler.call_after(interval, tick)

        self._adaptation_tick = self.scheduler.call_after(interval, tick)

    # ------------------------------------------------------------------
    def _stop_adapting(self) -> None:
        """Cancel the periodic loop and stop listening for traps."""
        if self._adaptation_tick is not None:
            self._adaptation_tick.cancel()
            self._adaptation_tick = None
        if self._trap_listener is not None:
            self._trap_listener.close()
            self._trap_listener = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every resource this client holds (idempotent)."""
        self._stop_adapting()
        self.endpoint.close()
        self.snmp.close()
        if self.netstate is not None:
            self.netstate.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WiredClient({self.name!r}, session={self.session.name!r})"
