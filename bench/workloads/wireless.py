"""wireless_tier_gate — the paper's FIG8-FIG10 path: SIR, tiers, renditions.

Two wired clients, a base station and three wireless clients (one of
which prefers speech) under the FIG8 path-loss and noise models.  Op:

1. two ``move_to()`` steps on a seeded mobility schedule (the reports
   travel to the BS over the radio links);
2. every 4th op ``apply_power_control()``, and the requests and the
   complying clients' reports settle;
3. ``evaluate_qos()`` fixes every client's modality tier;
4. a burst: 4 chat lines (2 wired, 2 wireless uplink), 1 whiteboard
   stroke, and every 11th op one 64x64 image, alternating wired downlink
   and wireless uplink (rarer, and the EZW codec would be over half the
   op: this workload is about the base station, not the codec).

The check replays the base station's gating rules on the tiers of step 3
and requires every client — wired and wireless — to have received
exactly the renditions those tiers allow.

Mobility is a schedule of *phases* of six ops.  Each phase draws one of
the scenarios below and a seeded assignment of the three clients to its
roles; received power goes as d^-4, so the distances put one client
0-9 dB above the other two or all three level, and the four tiers all
occur (one dominant client can be FULL or SKETCH, the rest TEXT or
NOTHING).  Power control only ever lowers power, so every phase starts
by resetting lowered clients to full power; otherwise FULL would die out
over a long run and the work mix would drift.  For the same reason the
session is replaced every 1 000 ops (see ``RenewedSessionWorkload``):
at ~6.5 messages an op the wired clients' archives would reach their
capacity, and its per-message cost, around op 1 500.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.apps.imageviewer import ImageViewer
from repro.core.events import (
    ChatEvent,
    Event,
    ImagePacketEvent,
    ImageShareAnnounce,
    SketchShareEvent,
    SpeechShareEvent,
    TextShareEvent,
    WhiteboardEvent,
)
from repro.core.framework import CollaborationFramework
from repro.core.policies import ModalityTier
from repro.media.describe import describe_image
from repro.media.images import collaboration_scene
from repro.wireless.channel import NoiseModel, PathLossModel

from ..layers import TIERS
from .base import (
    NETWORK_SEED,
    CheckResult,
    RenewedSessionWorkload,
    endpoint_totals,
    network_totals,
    selector_totals,
)

WIRED = 2
WIRELESS = 3
SCENES = 4
SIDE = 64
PHASE_OPS = 6
POWER_CONTROL_EVERY = 4
IMAGE_EVERY = 11
FULL_POWER = 1.0
#: radio reports and power requests cross a 2 ms link
SETTLE_S = 0.05
#: a speech rendition is ~25 kB over the 11 Mb/s radio link: ~20 ms
QUIESCE_S = 0.25

#: distance (m) of the dominant client, and per scenario the received
#: power of (dominant, second, third) relative to it
NEAR_M = 40.0
SCENARIOS = {
    "full": (1.0, 0.30, 0.05),
    "full_strong": (1.0, 0.10, 0.03),  # > 7 dB: draws a power-control request
    "sketch": (1.0, 0.50, 0.10),
    "level": (1.0, 0.90, 0.80),
}
SCENARIO_CYCLE = ("full", "full_strong", "sketch", "sketch", "full", "sketch", "level")
TIER_KEYS = dict(zip(
    (ModalityTier.NOTHING, ModalityTier.TEXT_ONLY, ModalityTier.TEXT_AND_SKETCH,
     ModalityTier.FULL_IMAGE),
    TIERS,
))

WORDS = ("sector", "clear", "casualty", "north", "eta", "two", "copy", "image", "follows")


def describe(event: Event) -> tuple:
    """What identifies a received rendition, independent of its bytes."""
    if isinstance(event, ChatEvent):
        return ("chat", event.author, event.text)
    if isinstance(event, WhiteboardEvent):
        return ("whiteboard", event.object_id, event.points)
    if isinstance(event, ImageShareAnnounce):
        return ("announce", event.image_id)
    if isinstance(event, ImagePacketEvent):
        return ("packet", event.image_id, event.packet_index)
    if isinstance(event, TextShareEvent):
        return ("text", event.ref_id, event.text)
    if isinstance(event, SpeechShareEvent):
        return ("speech", event.ref_id)
    if isinstance(event, SketchShareEvent):
        return ("sketch", event.ref_id)
    return (event.kind,)


class WirelessTierGate(RenewedSessionWorkload):
    name = "wireless_tier_gate"
    session_ops = 1000
    #: an image's scene (and with it its origin) repeats every SCENES-th
    #: image; power control, every 4th op, divides that
    mix_period = SCENES * IMAGE_EVERY

    def setup(self) -> None:
        rng = self.rng
        #: the wireless side's encoder (a field camera), as in FIG8b
        self.camera = ImageViewer("camera", n_packets=16, target_bpp=2.2)
        self.scenes = [
            collaboration_scene(SIDE, SIDE, seed=rng.randrange(2**31)) for _ in range(SCENES)
        ]
        self.descriptions = [describe_image(scene).text for scene in self.scenes]
        # the schedule has its own stream so that phase p is the same
        # whatever the ops before it drew
        self._phase_rng = random.Random(rng.randrange(2**31))
        self._phases: list[list[float]] = []
        self.tier_counts: Counter = Counter()
        super().setup()

    def open_session(self) -> None:
        self.fw = fw = CollaborationFramework(
            "bench-wireless", objective="tier-gated sharing", seed=NETWORK_SEED
        )
        self.wired = [fw.add_wired_client(f"wired{i}") for i in range(WIRED)]
        self.bs = bs = fw.add_base_station(
            "bs",
            pathloss=PathLossModel(alpha=4.0, k=1e6),
            noise=NoiseModel(reference_power=1.0, snr_ref_db=40.0),
        )
        self.mobiles = [
            fw.add_wireless_client(f"mobile{i}", bs, distance=NEAR_M * 2, tx_power=FULL_POWER)
            for i in range(WIRELESS)
        ]
        self.speech_listener = self.mobiles[-1].name
        self.mobiles[-1].set_modality_preference("speech")
        for client in self.wired:
            client.join()
        fw.run_for(0.5)

    def close_session(self) -> None:
        for client in self.wired:
            client.close()
        del self.fw, self.wired, self.bs, self.mobiles

    def _phase_distances(self, phase: int) -> list[float]:
        """Target distance of each mobile during ``phase``."""
        rng = self._phase_rng
        while len(self._phases) <= phase:
            p = len(self._phases)
            if p % len(SCENARIO_CYCLE) == 0:
                self._cycle = list(SCENARIO_CYCLE)
                rng.shuffle(self._cycle)
            powers = SCENARIOS[self._cycle[p % len(SCENARIO_CYCLE)]]
            roles = list(range(WIRELESS))
            rng.shuffle(roles)
            distances = [0.0] * WIRELESS
            for role, mobile in enumerate(roles):
                distances[mobile] = NEAR_M * powers[role] ** -0.25
            self._phases.append(distances)
        return self._phases[phase]

    def _chat_text(self) -> str:
        return " ".join(self.rng.choice(WORDS) for _ in range(self.rng.randint(2, 8)))

    def op(self, index: int) -> None:
        fw, rng, bs = self.fw, self.rng, self.bs
        wired, mobiles = self.wired, self.mobiles
        phase, step = divmod(index, PHASE_OPS)
        distances = self._phase_distances(phase)
        if step == 0:
            for mobile in mobiles:
                if mobile.tx_power != FULL_POWER:
                    mobile.set_power(FULL_POWER)
        movers = (index % WIRELESS, (index + 1) % WIRELESS)
        for k in movers:
            mobiles[k].move_to(distances[k] * rng.uniform(0.97, 1.03))
        fw.run_for(SETTLE_S)
        if index % POWER_CONTROL_EVERY == POWER_CONTROL_EVERY - 1:
            bs.apply_power_control()
            fw.run_for(SETTLE_S)
        snapshot = bs.evaluate_qos()
        self.tiers = [snapshot.for_client(m.name)[1] for m in mobiles]
        self.tier_counts.update(TIER_KEYS[tier] for tier in self.tiers)

        self.seen_before = [len(c.events_received) for c in wired] + [
            len(m.received_events) for m in mobiles
        ]
        self.issued_at = fw.now
        #: ("wired" | "wireless", origin index, rendition descriptor)
        self.simple: list[tuple[str, int, tuple]] = []
        for i, client in enumerate(wired):
            text = self._chat_text()
            client.send_chat(text)
            self.simple.append(("wired", i, ("chat", client.name, text)))
        for k in movers:
            text = self._chat_text()
            mobiles[k].send_event(ChatEvent(author=mobiles[k].name, text=text))
            self.simple.append(("wireless", k, ("chat", mobiles[k].name, text)))
        points = tuple(round(rng.uniform(0.0, 640.0), 1) for _ in range(2 * rng.randint(2, 6)))
        object_id = f"obj-{rng.randrange(8)}"
        wired[index % WIRED].draw(object_id, points)
        self.simple.append(("wired", index % WIRED, ("whiteboard", object_id, points)))
        #: ("wired" | "wireless", origin index, image id, scene index) or None
        self.image = None
        if index % IMAGE_EVERY == 0:
            share = index // IMAGE_EVERY
            scene = share % SCENES
            image_id = f"img-{index}"
            if share % 2 == 0:
                wired[0].share_image(image_id, self.scenes[scene])
                self.image = ("wired", 0, image_id, scene)
            else:
                k = share % WIRELESS
                announce, packets = self.camera.share(image_id, self.scenes[scene])
                mobiles[k].send_event(announce)
                for packet in packets:
                    mobiles[k].send_event(packet)
                self.image = ("wireless", k, image_id, scene)
        fw.run_for(QUIESCE_S)

    # ------------------------------------------------------------------
    # the oracle: the base station's gating rules, restated
    # ------------------------------------------------------------------
    def _expected(self) -> list[Counter]:
        """Renditions each receiver (wired first, then mobiles) must hold."""
        tiers = self.tiers
        nothing, text_only, sketch, full = (
            ModalityTier.NOTHING,
            ModalityTier.TEXT_ONLY,
            ModalityTier.TEXT_AND_SKETCH,
            ModalityTier.FULL_IMAGE,
        )
        expected = [Counter() for _ in range(WIRED + WIRELESS)]

        def to_wired(rendition: tuple, skip: int = -1) -> None:
            for i in range(WIRED):
                if i != skip:
                    expected[i][rendition] += 1

        def to_mobiles(rendition: tuple, skip: int = -1) -> None:
            for j in range(WIRELESS):
                if j != skip and tiers[j] is not nothing:
                    expected[WIRED + j][rendition] += 1

        # chat and whiteboard pass at any usable tier, both directions
        for origin, who, rendition in self.simple:
            if origin == "wired":
                to_wired(rendition, skip=who)
                to_mobiles(rendition)
            elif tiers[who] is not nothing:
                to_wired(rendition)
                to_mobiles(rendition, skip=who)

        if self.image is None:
            return expected
        origin, who, image_id, scene = self.image
        described = ("text", image_id, self.descriptions[scene])
        picture = [("announce", image_id)] + [
            ("packet", image_id, k) for k in range(self.camera.n_packets)
        ]
        base_layer = ("packet", image_id, 0)
        sender_tier = full if origin == "wired" else tiers[who]
        # what the sender's own uplink tier lets into the wired session
        into_session = {
            full: picture,
            sketch: [described, base_layer],  # the base layer passes as a marker
            text_only: [described],
            nothing: [],
        }[sender_tier]
        for rendition in into_session:
            to_wired(rendition, skip=who if origin == "wired" else -1)
        # ... and what each other mobile's downlink tier lets through of that
        for j, mobile in enumerate(self.mobiles):
            if sender_tier is nothing or tiers[j] is nothing:
                continue
            if origin == "wireless" and j == who:
                continue
            mine = expected[WIRED + j]
            if sender_tier is full and tiers[j] is full:
                mine.update(picture)
                continue
            # the description stands in for the picture, spoken if preferred
            if mobile.name == self.speech_listener:
                mine[("speech", image_id)] += 1
            else:
                mine[described] += 1
            if sender_tier is full and tiers[j] is sketch:
                mine[("sketch", image_id)] += 1  # the BS holds the whole image
            if sender_tier is sketch and tiers[j] is full:
                mine[base_layer] += 1
        return expected

    def check(self, index: int) -> CheckResult:
        errors: list[str] = []
        receivers = [(c.name, c.events_received) for c in self.wired] + [
            (m.name, m.received_events) for m in self.mobiles
        ]
        last_delivery = self.issued_at
        outcome = [tuple(int(t) for t in self.tiers)]
        for (name, log), seen, want in zip(receivers, self.seen_before, self._expected()):
            arrivals = log[seen:]
            got = Counter(describe(event) for _at, event in arrivals)
            if got != want:
                errors.append(
                    f"{name}: missing {sorted((want - got).elements())[:3]},"
                    f" unexpected {sorted((got - want).elements())[:3]}"
                    f" at tiers {[t.name for t in self.tiers]}"
                )
            if arrivals:
                last_delivery = max(last_delivery, arrivals[-1][0])
            outcome.append((name, sorted(got.items())))
        return errors, last_delivery - self.issued_at, repr(outcome).encode()

    def live_totals(self) -> dict[str, float]:
        bs = self.bs
        out = network_totals(self.fw.network)
        out.update(endpoint_totals([*(c.endpoint for c in self.wired), bs.endpoint]))
        out["msg.decode_failures"] += bs.decode_failures + sum(
            m.link.decode_failures for m in self.mobiles
        )
        out.update(selector_totals())
        for tier in TIERS:
            out[f"tier.{tier}"] = self.tier_counts[tier]
        out["bs.unicasts"] = sum(len(m.received_events) for m in self.mobiles)
        out["bs.session_events"] = bs.endpoint.received_messages + bs.endpoint.sent_messages
        views = [v for viewer in (*(c.viewer for c in self.wired), bs.viewer)
                 for v in viewer.viewed.values()]
        out["apps.accepted"] = sum(v.packets_accepted for v in views)
        out["apps.offered"] = sum(v.packets_offered for v in views)
        return out
