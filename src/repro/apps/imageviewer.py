"""Image viewer: the application the paper's wired experiments measure.

Sender side: encodes an image progressively, emits an announce (with the
verbal description in-band) followed by the image packets.

Receiver side: accepts at most ``packet_budget`` packets per image — the
budget is set by the inference engine from SNMP-observed system state —
reconstructs from the usable prefix, and records the paper's metrics
(packets, BPP, compression ratio) per image.  FIG6/FIG7 read these
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.events import ImagePacketEvent, ImageShareAnnounce
from ..media.describe import describe_image
from ..media.progressive import FULL_BUDGET, ImagePacket, ImagePacketError, ProgressiveImage
from ..media.progressive import ReceivedImage, ReceptionReport

__all__ = ["ImageViewer", "ViewedImage"]

#: Images whose packets are stashed while their announce is outstanding;
#: ``image_id`` arrives off the wire, so one more id evicts the oldest.
MAX_PRE_ANNOUNCE_IMAGES = 32


@dataclass
class ViewedImage:
    """Receiver-side record of one shared image."""

    image_id: str
    announce: ImageShareAnnounce
    assembly: ReceivedImage
    packets_offered: int = 0
    packets_accepted: int = 0
    original: Optional[np.ndarray] = None  # set in loopback/experiment mode

    def report(self) -> ReceptionReport:
        """Current reconstruction metrics."""
        return self.assembly.report(original=self.original)


class ImageViewer:
    """One client's image viewer instance."""

    def __init__(self, owner: str, n_packets: int = FULL_BUDGET, target_bpp: Optional[float] = 2.2) -> None:
        self.owner = owner
        self.n_packets = n_packets
        self.target_bpp = target_bpp
        #: set by the inference engine; packets beyond this are dropped
        self.packet_budget = n_packets
        self.viewed: dict[str, ViewedImage] = {}
        self.shared: dict[str, ProgressiveImage] = {}
        self._pre_announce: dict[str, list[ImagePacketEvent]] = {}

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def share(self, image_id: str, image: np.ndarray) -> tuple[ImageShareAnnounce, list[ImagePacketEvent]]:
        """Encode an image; returns (announce, packet events) to publish."""
        prog = ProgressiveImage(image, n_packets=self.n_packets, target_bpp=self.target_bpp)
        self.shared[image_id] = prog
        description = describe_image(image).text
        announce = ImageShareAnnounce(
            image_id=image_id,
            height=image.shape[0],
            width=image.shape[1],
            channels=prog.channels,
            n_packets=self.n_packets,
            total_bits=prog.total_bits,
            description=description,
            levels=prog.levels,
            t0_exps=prog.t0_exps,
        )
        packet_events = [
            ImagePacketEvent(
                image_id=image_id,
                packet_index=p.index,
                packet_total=p.total,
                payload=p.to_bytes(),
            )
            for p in prog.packets()
        ]
        return announce, packet_events

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def on_announce(self, announce: ImageShareAnnounce) -> ViewedImage:
        """Register an incoming share; idempotent per image id."""
        if announce.image_id in self.viewed:
            return self.viewed[announce.image_id]
        assembly = ReceivedImage(
            announce.height,
            announce.width,
            announce.channels,
            announce.levels,
            announce.t0_exps,
            announce.n_packets,
        )
        view = ViewedImage(announce.image_id, announce, assembly)
        self.viewed[announce.image_id] = view
        # drain any packets that raced ahead of the announce
        for pending in self._pre_announce.pop(announce.image_id, []):
            self.on_packet(pending)
        return view

    def on_packet(self, event: ImagePacketEvent) -> bool:
        """Offer a packet; returns True if it added a new index within the budget.

        A payload that is not the packet its event names raises
        :class:`ImagePacketError` and leaves the assembly untouched.

        "The resolution threshold is used to determine the number of image
        segments (i.e. the number of image packets) to be received."
        Packets arriving before their announce are buffered briefly.
        """
        view = self.viewed.get(event.image_id)
        if view is None:
            stash = self._pre_announce.get(event.image_id)
            if stash is None:
                if len(self._pre_announce) >= MAX_PRE_ANNOUNCE_IMAGES:
                    del self._pre_announce[next(iter(self._pre_announce))]
                stash = self._pre_announce[event.image_id] = []
            if len(stash) < 64:
                stash.append(event)
            return False
        view.packets_offered += 1
        if event.packet_index >= self.packet_budget:
            return False
        packet = ImagePacket.from_bytes(event.payload)
        if (packet.index, packet.total) != (event.packet_index, event.packet_total):
            # the budget read the header: the payload must be that packet
            raise ImagePacketError(
                f"payload is packet {packet.index}/{packet.total}, "
                f"its event says {event.packet_index}/{event.packet_total}"
            )
        held = view.assembly.received
        view.assembly.add_packet(packet)
        if view.assembly.received == held:
            return False  # an index already held: a late original or a repeat
        view.packets_accepted += 1
        return True

    def set_packet_budget(self, budget: int) -> None:
        """Inference-engine hook: future packets obey the new budget."""
        self.packet_budget = max(0, min(self.n_packets, int(budget)))

    # ------------------------------------------------------------------
    def reconstruct(self, image_id: str) -> np.ndarray:
        """Current best reconstruction of a viewed image."""
        return self.viewed[image_id].assembly.reconstruct()

    def report(self, image_id: str) -> ReceptionReport:
        """Paper metrics for one viewed image."""
        return self.viewed[image_id].report()
