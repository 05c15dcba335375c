"""Differential fuzz harness: the one codec-symmetry oracle.

:mod:`repro.analysis.wireformat` checks decode safety *statically*
(WIRE002); this module checks symmetry and decode safety at run time,
from an importing registry of the codec pairs, with deterministic,
seeded inputs:

* **round-trip** — ``decode(encode(v))`` must equal ``v`` for sampled
  valid values;
* **truncation at every offset** — ``decode(data[:k])`` for every
  ``k < len(data)`` must either succeed or raise the codec's *declared*
  error class, never ``struct.error``/``IndexError``/
  ``UnicodeDecodeError``/``RecursionError``;
* **seeded bit flips** — randomly corrupted copies of valid encodings
  must likewise never escape the declared error class.

Every failure is cross-checked against the static analyzer: a crash in a
file the WIRE pass already flagged is a *confirmed* static finding; a
crash in a WIRE-clean file is a gap in the static abstraction worth a
rule or corpus entry.  CI runs ``python -m repro.analysis.wirefuzz
--seed 1337`` and fails on any crash or round-trip mismatch.

Determinism: per-pair seeds mix the CLI seed with ``zlib.crc32`` of the
pair name (never ``hash()``, which is process-randomized), so runs are
reproducible across machines and interpreter launches.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "FuzzCodecPair",
    "FuzzFailure",
    "FuzzReport",
    "default_registry",
    "fuzz_pair",
    "fuzz_registry",
    "main",
]

_SRC_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@dataclass(frozen=True)
class FuzzCodecPair:
    """One registered encoder/decoder pair with its value sampler.

    ``expected_errors`` must name the codec's *declared* error classes
    exactly — not ``ValueError`` — so that e.g. an escaping
    ``UnicodeDecodeError`` (a ``ValueError`` subclass) still counts as a
    crash rather than being absorbed by a lax except clause.
    """

    name: str
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]
    sample: Callable[[random.Random], Any]
    expected_errors: tuple[type, ...]
    #: source file the static WIRE pass would flag for this codec
    static_file: str
    equal: Callable[[Any, Any], bool] = lambda a, b: a == b


@dataclass(frozen=True)
class FuzzFailure:
    pair: str
    property: str  # "round-trip" | "truncation" | "bit-flip"
    detail: str
    static_file: str


@dataclass
class FuzzReport:
    rounds: int = 0
    truncations: int = 0
    flips: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    def merge(self, other: "FuzzReport") -> None:
        self.rounds += other.rounds
        self.truncations += other.truncations
        self.flips += other.flips
        self.failures.extend(other.failures)


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
_WORDS = ("alpha", "béta", "gamma", "Δelta", "epsilon", "", "zeta-9", "控制")


def _s(rng: random.Random) -> str:
    return rng.choice(_WORDS) + (str(rng.randrange(1000)) if rng.random() < 0.5 else "")


def _b(rng: random.Random, cap: int = 48) -> bytes:
    return rng.randbytes(rng.randrange(cap))


def _u32(rng: random.Random) -> int:
    return rng.randrange(2**32)


#: one sampler per event wire type (see :mod:`repro.core.events`)
_WIRE_SAMPLERS: dict[str, Callable[[random.Random], Any]] = {
    "str": _s,
    "str2": lambda rng: (_s(rng), _s(rng)),
    "u32": _u32,
    "i32": lambda rng: rng.randrange(-(2**31), 2**31),
    "u64": lambda rng: rng.randrange(2**64),
    "f64": lambda rng: rng.uniform(-1e6, 1e6),
    "bool": lambda rng: rng.random() < 0.5,
    "bytes": _b,
}


def _wire_value(wire_type: str, rng: random.Random) -> Any:
    if wire_type.endswith("*"):
        item = _WIRE_SAMPLERS[wire_type[:-1]]
        return tuple(item(rng) for _ in range(rng.randrange(5)))
    return _WIRE_SAMPLERS[wire_type](rng)


def _event_sampler(cls: Any) -> Callable[[random.Random], Any]:
    """Sample ``cls`` field by field from its ``wire`` layout."""
    from ..core.events import wire_fields

    layout = wire_fields(cls)
    return lambda rng: cls(**{name: _wire_value(wire_type, rng) for name, wire_type in layout})


def _sample_ber(rng: random.Random, depth: int = 0) -> Any:
    from ..snmp import ber

    primitive: tuple[Callable[[], Any], ...] = (
        lambda: ber.Integer(rng.randrange(-(2**31), 2**31)),
        lambda: ber.OctetString(_b(rng)),
        lambda: ber.Null(),
        lambda: ber.ObjectIdentifierValue(
            (1, 3) + tuple(rng.randrange(2**14) for _ in range(rng.randrange(6)))
        ),
        lambda: ber.IpAddress(rng.randbytes(4)),
        lambda: ber.Counter32(_u32(rng)),
        lambda: ber.Gauge32(_u32(rng)),
        lambda: ber.TimeTicks(_u32(rng)),
        lambda: ber.Counter64(rng.randrange(2**64)),
    )
    if depth >= 2 or rng.random() < 0.6:
        return rng.choice(primitive)()
    items = tuple(_sample_ber(rng, depth + 1) for _ in range(rng.randrange(3)))
    if rng.random() < 0.5:
        return ber.Sequence(items)
    return ber.TaggedPdu(0xA0 | rng.randrange(4), items)


def _sample_snmp_message(rng: random.Random) -> Any:
    from ..snmp import pdu
    from ..snmp.oids import OID

    v1_tags = (pdu.PDU_GET, pdu.PDU_RESPONSE)
    tag = rng.choice(v1_tags + (pdu.PDU_TRAP_V2,))
    version = pdu.VERSION_1 if tag in v1_tags and rng.random() < 0.5 else pdu.VERSION_2C
    request_id, slot1, slot2 = (rng.randrange(-(2**31), 2**31) for _ in range(3))
    varbinds = tuple(
        (OID((1, 3, *(rng.randrange(2**14) for _ in range(rng.randrange(6))))), _sample_ber(rng))
        for _ in range(rng.randrange(4))
    )
    community = _b(rng, 16).decode("latin-1")
    return pdu.SnmpMessage(version, community, tag, request_id, slot1, slot2, varbinds)


def _sample_message(rng: random.Random) -> Any:
    from ..core.matching_engine import compile_selector
    from ..messaging.message import MessageId, SemanticMessage

    selectors = (
        "true",
        "role == 'medic'",
        "tier >= 2 and role == 'scout'",
        "cell == 'c7' or tier < 1",
    )
    headers: dict[str, Any] = {}
    for _ in range(rng.randrange(4)):
        key = _s(rng) or "k"
        headers[key] = rng.choice(
            (
                lambda: _s(rng),
                lambda: rng.randrange(-(2**31), 2**31),
                lambda: rng.uniform(-1e6, 1e6),
                lambda: rng.random() < 0.5,
                lambda: [rng.randrange(100) for _ in range(rng.randrange(3))],
            )
        )()
    return SemanticMessage(
        msg_id=MessageId(_s(rng) or "sender", rng.randrange(2**20)),
        selector=compile_selector(rng.choice(selectors)),
        headers=headers,
        body=_b(rng),
        kind=rng.choice(("chat", "whiteboard", "bench")),
        sender=_s(rng) or "sender",
    )


def _message_equal(a: Any, b: Any) -> bool:
    return (
        a.msg_id == b.msg_id
        and a.kind == b.kind
        and a.sender == b.sender
        and a.selector.text == b.selector.text
        and a.headers == b.headers
        and a.body == b.body
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def default_registry() -> list[FuzzCodecPair]:
    """Every shipped codec pair, with samplers and declared errors."""
    import numpy as np

    from ..core import events as ev
    from ..media.progressive import FULL_BUDGET, PACKET_COUNTS, ImagePacket, ImagePacketError, ReceivedImage
    from ..media.sketch import Sketch, SketchError, decode_sketch, extract_sketch
    from ..messaging import rtp
    from ..messaging.serialization import WireError, decode_message, encode_message
    from ..snmp import ber, pdu
    from ..snmp.errors import SnmpProtocolError

    events_file = os.path.join(_SRC_ROOT, "repro", "core", "events.py")
    pairs: list[FuzzCodecPair] = []
    for cls_name in sorted(ev.__all__):
        cls = getattr(ev, cls_name)
        if not (isinstance(cls, type) and issubclass(cls, ev.Event)) or cls is ev.Event:
            continue
        pairs.append(
            FuzzCodecPair(
                name=f"events.{cls_name}",
                encode=lambda e: e.to_body(),
                decode=cls.from_body,
                sample=_event_sampler(cls),
                expected_errors=(ev.EventError,),
                static_file=events_file,
            )
        )

    def sample_rtp(rng: random.Random) -> rtp.RtpPacket:
        frag_count = rng.randrange(1, 5)
        return rtp.RtpPacket(
            ssrc=_u32(rng),
            msg_seq=_u32(rng),
            frag_index=rng.randrange(frag_count),
            frag_count=frag_count,
            seq=_u32(rng),
            payload=_b(rng),
        )

    pairs.append(
        FuzzCodecPair(
            name="rtp.RtpPacket",
            encode=lambda p: p.encode(),
            decode=rtp.RtpPacket.decode,
            sample=sample_rtp,
            expected_errors=(rtp.RtpError,),
            static_file=os.path.join(_SRC_ROOT, "repro", "messaging", "rtp.py"),
        )
    )

    def sample_chunk(rng: random.Random) -> tuple[bytes, int]:
        data = _b(rng)
        return data, rng.randrange(8 * len(data) + 1)

    pairs.append(
        FuzzCodecPair(
            name="progressive.ImagePacket",
            encode=lambda p: p.to_bytes(),
            decode=ImagePacket.from_bytes,
            sample=lambda rng: ImagePacket(
                index=rng.randrange(FULL_BUDGET),
                total=FULL_BUDGET,
                chunks=tuple(sample_chunk(rng) for _ in range(rng.randrange(1, 4))),
            ),
            expected_errors=(ImagePacketError,),
            static_file=os.path.join(_SRC_ROOT, "repro", "media", "progressive.py"),
        )
    )

    sample_announce = _event_sampler(ev.ImageShareAnnounce)

    def sample_geometry(rng: random.Random) -> ev.ImageShareAnnounce:
        levels, channels = rng.randrange(1, 8), rng.choice((1, 3))
        return replace(
            sample_announce(rng),
            height=rng.randrange(1, 9) << levels,
            width=rng.randrange(1, 9) << levels,
            channels=channels,
            n_packets=rng.choice(PACKET_COUNTS),
            levels=levels,
            t0_exps=tuple(rng.randrange(-64, 64) for _ in range(channels)),
        )

    def assemble(body: bytes) -> ReceivedImage:
        a = ev.ImageShareAnnounce.from_body(body)
        return ReceivedImage(a.height, a.width, a.channels, a.levels, a.t0_exps, a.n_packets)

    # the announce's geometry is decoder input too: a body that decodes as
    # an event must still be refused before it sizes the receiver's tables
    pairs.append(
        FuzzCodecPair(
            name="progressive.ReceivedImage",
            encode=lambda a: a.to_body(),
            decode=assemble,
            sample=sample_geometry,
            expected_errors=(ev.EventError, ImagePacketError),
            static_file=os.path.join(_SRC_ROOT, "repro", "media", "progressive.py"),
            equal=lambda a, r: (a.height, a.width, a.channels, a.levels, a.t0_exps, a.n_packets)
            == (r.height, r.width, r.n_channels, r.levels, r.t0_exps, r.n_packets),
        )
    )
    pairs.append(
        FuzzCodecPair(
            name="serialization.SemanticMessage",
            encode=encode_message,
            decode=decode_message,
            sample=_sample_message,
            expected_errors=(WireError,),
            static_file=os.path.join(
                _SRC_ROOT, "repro", "messaging", "serialization.py"
            ),
            equal=_message_equal,
        )
    )

    # the sketch's shape travels beside its bytes (SketchShareEvent's
    # sketch_h / sketch_w); 32x32 is what extract_sketch aims for
    def sample_sketch(rng: random.Random) -> Sketch:
        img = np.zeros((32, 32))
        for _ in range(rng.randrange(6)):
            y, x = rng.randrange(32), rng.randrange(32)
            img[y : y + rng.randrange(1, 32), x : x + rng.randrange(1, 32)] = rng.randrange(256)
        if rng.random() < 0.5:
            img += np.frombuffer(rng.randbytes(32 * 32), dtype=np.uint8).reshape(32, 32)
        # a low percentile marks dense noise, where bit-packing beats RLE
        return extract_sketch(img, edge_percentile=rng.uniform(50.0, 99.0))

    pairs.append(
        FuzzCodecPair(
            name="sketch.Sketch",
            encode=lambda sk: sk.encoded,
            decode=lambda data: decode_sketch(data, (32, 32)),
            sample=sample_sketch,
            expected_errors=(SketchError,),
            static_file=os.path.join(_SRC_ROOT, "repro", "media", "sketch.py"),
            equal=lambda a, mask: bool(np.array_equal(a.mask, mask)),
        )
    )

    def decode_ber(data: bytes) -> Any:
        value, end = ber.decode(data)
        if end != len(data):
            raise ber.BerError(f"trailing bytes after TLV: {len(data) - end}")
        return value

    pairs.append(
        FuzzCodecPair(
            name="ber.BerValue",
            encode=ber.encode,
            decode=decode_ber,
            sample=_sample_ber,
            expected_errors=(ber.BerError,),
            static_file=os.path.join(_SRC_ROOT, "repro", "snmp", "ber.py"),
        )
    )
    pairs.append(
        FuzzCodecPair(
            name="snmp.SnmpMessage",
            encode=lambda m: m.to_bytes(),
            decode=pdu.SnmpMessage.from_bytes,
            sample=_sample_snmp_message,
            expected_errors=(ber.BerError, SnmpProtocolError),
            static_file=os.path.join(_SRC_ROOT, "repro", "snmp", "pdu.py"),
        )
    )
    return pairs


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _pair_seed(seed: int, name: str) -> int:
    return seed ^ zlib.crc32(name.encode("utf-8"))


def _flip_bits(data: bytes, rng: random.Random, max_flips: int = 3) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randrange(1, max_flips + 1)):
        i = rng.randrange(len(out))
        out[i] ^= 1 << rng.randrange(8)
    return bytes(out)


#: corrupted copies decoded per round-trip sample
FLIPS_PER_ROUND = 16


def fuzz_pair(pair: FuzzCodecPair, *, seed: int, rounds: int = 8) -> FuzzReport:
    """Round-trip + truncation-at-every-offset + seeded bit flips
    (:data:`FLIPS_PER_ROUND` per sample)."""
    rng = random.Random(_pair_seed(seed, pair.name))
    report = FuzzReport()

    def crash(prop: str, exc: BaseException, data: bytes) -> None:
        report.failures.append(
            FuzzFailure(
                pair=pair.name,
                property=prop,
                detail=f"{type(exc).__name__}: {exc} (input {data[:40].hex()}…)"
                if len(data) > 40
                else f"{type(exc).__name__}: {exc} (input {data.hex()})",
                static_file=pair.static_file,
            )
        )

    for _ in range(rounds):
        report.rounds += 1
        value = pair.sample(rng)
        data = pair.encode(value)
        try:
            decoded = pair.decode(data)
        except Exception as exc:  # a valid encoding must always decode
            crash("round-trip", exc, data)
            continue
        if not pair.equal(value, decoded):
            report.failures.append(
                FuzzFailure(
                    pair=pair.name,
                    property="round-trip",
                    detail=f"decode(encode(v)) != v: {value!r} -> {decoded!r}",
                    static_file=pair.static_file,
                )
            )
        for k in range(len(data)):
            report.truncations += 1
            try:
                pair.decode(data[:k])
            except pair.expected_errors:
                pass
            except Exception as exc:
                crash("truncation", exc, data[:k])
                break
        if data:
            for _ in range(FLIPS_PER_ROUND):
                report.flips += 1
                corrupted = _flip_bits(data, rng)
                try:
                    pair.decode(corrupted)
                except pair.expected_errors:
                    pass
                except Exception as exc:
                    crash("bit-flip", exc, corrupted)
                    break
    return report


def fuzz_registry(*, seed: int = 1337, rounds: int = 8) -> FuzzReport:
    """Fuzz every registered pair; one merged report."""
    report = FuzzReport()
    for pair in default_registry():
        report.merge(fuzz_pair(pair, seed=seed, rounds=rounds))
    return report


def _cross_check(failures: list[FuzzFailure]) -> list[str]:
    """Relate runtime crashes to the static pass's current findings."""
    from .wireformat import wire_file

    lines = []
    flagged_cache: dict[str, bool] = {}
    for f in failures:
        flagged = flagged_cache.get(f.static_file)
        if flagged is None:
            try:
                flagged = any(
                    d.code == "WIRE002" for d in wire_file(f.static_file)
                )
            except OSError:
                flagged = False
            flagged_cache[f.static_file] = flagged
        verdict = (
            "confirms a static WIRE002 finding"
            if flagged
            else "NOT predicted by the static pass — abstraction gap"
        )
        lines.append(f"  [{f.pair}] {f.property}: {f.detail} ({verdict})")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.wirefuzz",
        description="registry-driven differential fuzz over every wire codec",
    )
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--rounds", type=int, default=8, help="samples per codec pair")
    args = parser.parse_args(argv)
    report = fuzz_registry(seed=args.seed, rounds=args.rounds)
    n_pairs = len(default_registry())
    print(
        f"fuzzed {n_pairs} codec pair(s): {report.rounds} round-trips, "
        f"{report.truncations} truncations, {report.flips} bit-flips "
        f"(seed {args.seed})"
    )
    if report.failures:
        print(f"{len(report.failures)} FAILURE(S):", file=sys.stderr)
        for line in _cross_check(report.failures):
            print(line, file=sys.stderr)
        return 1
    print("all codecs total: no uncaught decoder exception, round-trips exact")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
