"""``ImagePacket.from_bytes`` as it was before it kept recent decodes.

The oracle of ``tests/messaging/test_recent_decodes.py``: it parses
every input afresh into the real :class:`ImagePacket`.
"""

from repro.media.progressive import ImagePacket, ImagePacketError


def reference_packet_from_bytes(raw: bytes) -> ImagePacket:
    if len(raw) < 5:
        raise ImagePacketError(f"packet header needs 5 bytes, have {len(raw)}")
    index = int.from_bytes(raw[0:2], "big")
    total = int.from_bytes(raw[2:4], "big")
    n_chunks = raw[4]
    chunks = []
    pos = 5
    for _ in range(n_chunks):
        if pos + 8 > len(raw):
            raise ImagePacketError("truncated chunk header")
        bits = int.from_bytes(raw[pos : pos + 4], "big")
        ln = int.from_bytes(raw[pos + 4 : pos + 8], "big")
        end = pos + 8 + ln
        if end > len(raw):
            raise ImagePacketError(f"chunk payload runs past the packet: need {end} byte(s), have {len(raw)}")
        if bits > 8 * ln:
            raise ImagePacketError(f"chunk claims {bits} bit(s) in {ln} byte(s)")
        chunks.append((raw[pos + 8 : end], bits))
        pos = end
    if pos != len(raw):
        raise ImagePacketError(f"{len(raw) - pos} byte(s) after the last chunk")
    return ImagePacket(index, total, tuple(chunks))
