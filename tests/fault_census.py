"""Seeded-fault census of the analyzer's rule families.

Not a test module (pytest does not collect it).  From the repository root::

    python tests/fault_census.py

Each row of :data:`SEEDS` is one fault a rule family targets, written as a
one-place source edit ``(family, path, old, new, what)``; ``old`` occurs
exactly once in the file at ``HEAD``.  Every seed runs in its own
``git archive HEAD`` copy, with ``repro`` imported from that copy, and
records three checks:

(a) the family: ``python -m repro.analysis --format json`` reports one of
    the family's codes more often than on the unmutated copy;
(b) tier-1: the test files that import the mutated module, plus
    ``tests/test_examples.py`` (which runs every example) and
    ``tests/experiments/``, with ``-x``; if those pass, all of tier-1 with
    ``-x``.  ``tests/analysis/`` is left out of both runs: its tests run
    the rule families over the tree, so a failure there is the family's
    catch, not tier-1's;
(c) for a seed in a codec file, ``python -m repro.analysis.wirefuzz
    --seed 1337``.

The unmutated copy must pass (b)'s full run and (c) first, or the census
stops: otherwise every seed would count as caught.

It prints one line per seed, then one row per family: seeds, caught by
the family, caught by tier-1 (examples included) or the fuzzer, and caught
by the family alone.  A family whose code is gone from the analyzer
reports 0 in (a).  Two seeds run at a time.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PY = sys.executable
TIMEOUT = 600  # seconds per command; a hang counts as a failure
CODES = {"SEL": ("SEL",), "POL": ("POL",), "WIRE": ("WIRE",), "UNI": ("UNI",), "EXC": ("EXC",),
         "PERF": ("PERF",), "DLK/RACE": ("DLK", "RACE"), "LNT": ("LNT",)}
#: the files of the codec pairs the fuzzer registers
CODEC_FILES = {f"src/repro/{m}.py" for m in ("core/events", "messaging/rtp", "messaging/serialization",
                                             "media/progressive", "media/ezw", "media/sketch",
                                             "snmp/ber", "snmp/pdu")}
PYTEST = [PY, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore=tests/analysis"]
LOCK = "with self._attach_lock:\n"

#: (family, path, old, new, what the fault is)
SEEDS: tuple[tuple[str, str, str, str, str], ...] = (
    # -- selector literals: contradictory, vacuous, type-conflicting, unparseable
    ("SEL", "examples/telediagnosis.py", "\"not (modality == 'image')\"",
     "\"not (modality == 'image') and modality == 'image'\"", "ward interest contradicts itself"),
    ("SEL", "examples/telediagnosis.py", "\"not (modality == 'image')\"",
     "\"not (modality == 'image') or true\"", "ward interest is vacuous"),
    ("SEL", "examples/crisis_management.py", "'text-share'] or topic == 'medical'\"",
     "'text-share'] and kind == 'chat'\"", "hospital interest contradicts itself"),
    ("SEL", "examples/crisis_management.py", "'text-share'] or topic == 'medical'\"",
     "'text-share'] or topic == 'medical' or true\"", "hospital interest is vacuous"),
    ("SEL", "examples/trading_floor.py", "\"category == 'modems' and price <= 50 or",
     "\"category == 'modems' and category == 'printers' and", "modem buyer's interest contradicts itself"),
    ("SEL", "examples/trading_floor.py", "\"price <= 20 or kind == 'join'\"",
     "\"price <= 20 or not (price <= 20) or kind == 'join'\"", "bargain hunter's interest is vacuous"),
    ("SEL", "examples/trading_floor.py", "set_interest(\"price <= 100\")",
     "set_interest(\"price <= 100 and price == 'cheap'\")", "raised budget compares a number to a string"),
    ("SEL", "src/repro/core/wireless_client.py", "selector=\"role == 'base-station'\"",
     "selector=\"role == 'base-station' and role == 'mobile'\"", "uplink selector contradicts itself"),
    ("SEL", "src/repro/core/wireless_client.py", "selector=\"role == 'base-station'\"",
     "selector=\"role == = 'base-station'\"", "uplink selector does not parse"),
    ("SEL", "src/repro/core/selectors.py", "TRUE_SELECTOR = Selector(\"true\")",
     "TRUE_SELECTOR = Selector(\"false\")", "the broadcast selector matches nobody"),
    # -- default_policy_database: unordered, equal bands, off-step, collapsed tier
    ("POL", "src/repro/core/policies.py", "(86, 2)],\n        floor=1,", "(86, 2)],\n        floor=4,",
     "page-fault floor above the band before it"),
    ("POL", "src/repro/core/policies.py", "(72, 4), (86, 2)],\n        floor=1,",
     "(72, 4), (86, 4)],\n        floor=1,", "page-fault bands 72 and 86 decide the same 4"),
    ("POL", "src/repro/core/policies.py", "breakpoints=[(44, 16), (58, 8), (72, 4), (86, 2)],\n        floor=1",
     "breakpoints=[(44, 16), (58, 6), (72, 4), (86, 2)],\n        floor=1", "page-fault band decides 6 packets"),
    ("POL", "src/repro/core/policies.py", "(97, 1)],\n        floor=0,", "(97, 1)],\n        floor=2,",
     "cpu-load floor above the band before it"),
    ("POL", "src/repro/core/policies.py", "(86, 2), (97, 1)]", "(86, 2), (97, 2)]",
     "cpu-load bands 86 and 97 decide the same 2"),
    ("POL", "src/repro/core/policies.py", "(86, 2), (97, 1)]", "(86, 2), (97, 3)]", "cpu-load band decides 3 packets"),
    ("POL", "src/repro/core/policies.py", "(5_120_000, 4)", "(5_120_000, 5)", "bandwidth band decides 5 packets"),
    ("POL", "src/repro/core/policies.py", "(2_560_000, 2)", "(2_560_000, 1)", "bandwidth bands decide the same 1"),
    ("POL", "src/repro/core/policies.py", "sketch_db: float = 0.0", "sketch_db: float = 4.0",
     "sketch threshold equals the image threshold"),
    ("POL", "src/repro/core/policies.py", "text_db: float = -6.0", "text_db: float = 0.0",
     "text threshold equals the sketch threshold"),
    # -- decoders: a dropped len() guard
    ("WIRE", "src/repro/messaging/rtp.py", "        if len(data) < HEADER_SIZE:\n            raise RtpError("
     "f\"fragment shorter than header: {len(data)}\")\n        ssrc, msg_seq, frag_index, frag_count, seq =",
     "        ssrc, msg_seq, frag_index, frag_count, seq =", "RtpPacket.decode reads a short header"),
    ("WIRE", "src/repro/snmp/ber.py", "    if offset >= len(data):\n        raise BerError(\"truncated length\")\n"
     "    first", "    first", "decode_length reads past the end (one of two guards)"),
    ("WIRE", "src/repro/snmp/ber.py", "    if offset >= len(data):\n        raise BerError(\"truncated length\")\n"
     "    first = data[offset]\n    offset += 1\n    if first < 0x80:\n        return first, offset\n"
     "    nbytes = first & 0x7F\n    if nbytes == 0:\n        raise BerError(\"indefinite length not allowed in SNMP\")\n"
     "    if offset + nbytes > len(data):\n        raise BerError(\"truncated long-form length\")\n",
     "    first = data[offset]\n    offset += 1\n    if first < 0x80:\n        return first, offset\n"
     "    nbytes = first & 0x7F\n    if nbytes == 0:\n        raise BerError(\"indefinite length not allowed in SNMP\")\n",
     "decode_length reads past the end (both guards)"),
    ("WIRE", "src/repro/snmp/ber.py", "    if not body:\n        raise BerError(\"empty OID body\")\n", "",
     "decode_oid_body indexes an empty body"),
    ("WIRE", "src/repro/messaging/serialization.py", "        if pos >= len(data):\n            raise WireError("
     "\"truncated varint\")\n", "", "_read_varint reads past the end"),
    ("WIRE", "src/repro/messaging/serialization.py", "    if len(data) < 3 or data[2] != _VERSION:",
     "    if data[2] != _VERSION:", "decode_message indexes a short frame"),
    ("WIRE", "src/repro/media/progressive.py", "        if len(raw) < 5:\n            raise ImagePacketError("
     "f\"packet header needs 5 bytes, have {len(raw)}\")\n", "", "ImagePacket.from_bytes reads a short header"),
    ("WIRE", "src/repro/media/sketch.py", "    if not data:\n        raise SketchError(\"empty RLE stream\")\n", "",
     "_rle_decode indexes an empty stream"),
    ("WIRE", "src/repro/core/events.py", "    if pos + 4 > len(body):\n        raise EventError(\"truncated string "
     "length\")\n", "", "_read_str unpacks a short length (one of two guards)"),
    ("WIRE", "src/repro/core/events.py", "    if pos + 4 > len(body):\n        raise EventError(\"truncated string "
     "length\")\n    (n,) = _U32.unpack_from(body, pos)\n    pos += 4\n    if pos + n > len(body):\n"
     "        raise EventError(\"truncated string\")\n", "    (n,) = _U32.unpack_from(body, pos)\n    pos += 4\n",
     "_read_str reads a short string (both guards)"),
    ("WIRE", "src/repro/media/ezw.py", "    limit = min(encoded.payload_bits, 8 * len(encoded.payload))",
     "    limit = encoded.payload_bits", "ezw_decode trusts the declared bit count"),
    # -- units: a bits/bytes, s/ms/us or dB/linear swap
    ("UNI", "src/repro/hosts/snmp_binding.py", "int(min(access_link.bandwidth, 2**32 - 1))",
     "int(min(access_link.bandwidth * 8, 2**32 - 1))", "linkBandwidth gauge in bits/s, not bytes/s"),
    ("UNI", "src/repro/snmp/switch_binding.py", "int(min(l.bandwidth * 8, 2**32 - 1))",
     "int(min(l.bandwidth, 2**32 - 1))", "ifSpeed gauge in bytes/s, not bits/s"),
    ("UNI", "src/repro/hosts/snmp_binding.py", "access_link.latency * 1e6", "access_link.latency * 1e3",
     "linkLatencyUs gauge in ms"),
    ("UNI", "src/repro/hosts/snmp_binding.py", "access_link.jitter * 1e6", "access_link.jitter",
     "linkJitterUs gauge in s"),
    ("UNI", "src/repro/core/netstate.py", "(TASSL.linkBandwidth, \"bandwidth_bps\", bytes_to_bits)",
     "(TASSL.linkBandwidth, \"bandwidth_bps\", _numeric)", "bandwidth_bps read as bytes/s"),
    ("UNI", "src/repro/core/netstate.py", "(TASSL.linkLatencyUs, \"link_latency_ms\", us_to_ms)",
     "(TASSL.linkLatencyUs, \"link_latency_ms\", _numeric)", "link_latency_ms read in us"),
    ("UNI", "src/repro/core/netstate.py", "_numeric(v) * 8.0", "_numeric(v) / 8.0", "bytes to bits divides"),
    ("UNI", "src/repro/wireless/linkquality.py", "from_db(np.asarray(sir_db) + coding_gain_db)",
     "np.asarray(sir_db) + coding_gain_db", "loss model takes dB as a linear ratio"),
    ("UNI", "src/repro/wireless/powercontrol.py", "frame_success_rate(from_db(sir_db))",
     "frame_success_rate(sir_db)", "utility takes dB as a linear ratio"),
    ("UNI", "src/repro/wireless/sir.py", "return to_db(sir(powers, gains, sigma2))",
     "return sir(powers, gains, sigma2)", "sir_db returns a linear ratio"),
    # -- exception flow: a decode call moved outside its try
    ("EXC", "src/repro/messaging/transport.py", "        try:\n            message = decode_message(payload)\n"
     "        except WireError:\n            self.drop(\"an undecodable message payload\")\n            return\n",
     "        message = decode_message(payload)\n", "endpoint decodes a payload unguarded"),
    ("EXC", "src/repro/messaging/transport.py", "        try:\n            self.reassembler.ingest(data)\n"
     "        except RtpError:\n            self.drop(\"an undecodable RTP fragment\")\n            return False\n",
     "        self.reassembler.ingest(data)\n", "endpoint ingests a fragment unguarded"),
    ("EXC", "src/repro/core/client.py", "        try:\n            event = decode_event(msg.kind, msg.body)\n"
     "        except EventError:\n            # undecodable event: drop and count, never abort the dispatch\n"
     "            # loop, and keep its id free for an intact copy\n            self.endpoint.wire.decode_failures += 1\n"
     "            return\n", "        event = decode_event(msg.kind, msg.body)\n", "wired client decodes an event unguarded"),
    ("EXC", "src/repro/core/basestation.py", "        try:\n            event = decode_event(msg.kind, msg.body)\n"
     "        except EventError:\n            self.endpoint.wire.decode_failures += 1\n            return\n",
     "        event = decode_event(msg.kind, msg.body)\n", "base station decodes a session event unguarded"),
    ("EXC", "src/repro/core/basestation.py", "        try:\n            event = decode_event(msg.kind, msg.body)\n"
     "        except EventError:\n            self.radio.wire.decode_failures += 1\n            return\n",
     "        event = decode_event(msg.kind, msg.body)\n", "base station decodes an uplink event unguarded"),
    ("EXC", "src/repro/core/wireless_client.py", "        try:\n            event = decode_event(message.kind, "
     "message.body)\n        except EventError:\n            self.link.wire.decode_failures += 1\n            return\n",
     "        event = decode_event(message.kind, message.body)\n", "wireless client decodes an event unguarded"),
    ("EXC", "src/repro/core/wireless_client.py", "            try:\n                self.sketches[event.ref_id] = "
     "decode_sketch(\n                    event.encoded, (event.sketch_h, event.sketch_w)\n                )\n"
     "            except SketchError:\n", "            self.sketches[event.ref_id] = decode_sketch(\n"
     "                event.encoded, (event.sketch_h, event.sketch_w)\n            )\n            if False:\n",
     "wireless client decodes a sketch unguarded"),
    ("EXC", "src/repro/snmp/manager.py", "        try:\n            message = SnmpMessage.from_bytes(data)\n"
     "        except (BerError, SnmpProtocolError):\n            return\n",
     "        message = SnmpMessage.from_bytes(data)\n", "manager decodes a reply unguarded"),
    ("EXC", "src/repro/snmp/traps.py", "        try:\n            message = SnmpMessage.from_bytes(data)\n"
     "        except (BerError, SnmpProtocolError):\n            self.decode_failures += 1\n            return\n",
     "        message = SnmpMessage.from_bytes(data)\n", "trap listener decodes a trap unguarded"),
    ("EXC", "src/repro/snmp/agent.py", "        try:\n            reply = self._process(data)\n"
     "        except (BerError, SnmpProtocolError):\n            self.decode_failures += 1\n"
     "            return  # RFC 1157: drop undecodable messages silently\n",
     "        reply = self._process(data)\n", "agent decodes a request unguarded"),
    # -- hot paths: a per-call parse, a loop-invariant call, a population scan
    ("PERF", "src/repro/messaging/sharded.py", "selectors = [compile_selector(m.selector) for m in msgs]",
     "selectors = [Selector(str(m.selector)) for m in msgs]", "batch publish re-parses every selector"),
    ("PERF", "src/repro/core/matching.py", "return compile_selector(selector).matches(profile.snapshot())",
     "return Selector(str(selector)).matches(profile.snapshot())", "match_selector re-parses per call"),
    ("PERF", "src/repro/messaging/message.py", "        sel = compile_selector(selector)",
     "        sel = Selector(str(selector))", "message creation re-parses its selector"),
    ("PERF", "src/repro/messaging/broker.py", "        result = interpret(selector, headers, sub.profile)",
     "        result = interpret(compile_selector(message.selector), headers, sub.profile)",
     "offer compiles the same selector per candidate"),
    ("PERF", "src/repro/messaging/broker.py", "            for sub in self._by_profile.get(id(exclude), ()):\n"
     "                sub._excluded += 1\n                excluded += 1\n",
     "            for sub in self._subs:\n                if sub.profile is exclude:\n"
     "                    sub._excluded += 1\n                    excluded += 1\n", "publish scans every subscriber"),
    ("PERF", "src/repro/messaging/sharded.py", "            offered = self._size\n",
     "            offered = sum(len(list(shard.subs)) for shard in self._shards)\n",
     "batch publish copies every shard's subscribers"),
    ("PERF", "src/repro/messaging/sharded.py", "                for ex_sub in self._by_profile.get(id(exclude), ()):\n",
     "                for ex_sub in [s for shard in self._shards for s in shard.subs if s.profile is exclude]:\n",
     "batch publish scans every subscriber for the sender"),
    ("PERF", "src/repro/core/netstate.py", "        for p in self.probes:\n            by_host",
     "        for p in sorted(self.probes, key=lambda p: (p.host, compile(p.parameter, '<p>', 'eval').co_name)):\n"
     "            by_host", "poll compiles per probe"),
    # -- locks: a dropped `with self._attach_lock:` or `with self._mu:`
    ("DLK/RACE", "src/repro/messaging/broker.py", LOCK + "            self._seq_counter += 1\n            sub = Subscription",
     "if True:\n            self._seq_counter += 1\n            sub = Subscription", "SemanticBus.attach unlocked"),
    ("DLK/RACE", "src/repro/messaging/broker.py", LOCK + "            try:\n                self._subs.remove",
     "if True:\n            try:\n                self._subs.remove", "SemanticBus._detach unlocked"),
    ("DLK/RACE", "src/repro/messaging/broker.py", LOCK + "            candidates, offered",
     "if True:\n            candidates, offered", "SemanticBus.publish plans unlocked"),
    ("DLK/RACE", "src/repro/messaging/sharded.py", LOCK + "            self._seq_counter += 1",
     "if True:\n            self._seq_counter += 1", "ShardedSemanticBus.attach unlocked"),
    ("DLK/RACE", "src/repro/messaging/sharded.py", LOCK + "            shard = self._shards[sub.shard]",
     "if True:\n            shard = self._shards[sub.shard]", "ShardedSemanticBus._detach unlocked"),
    ("DLK/RACE", "src/repro/messaging/sharded.py", LOCK + "            self.batches += 1",
     "if True:\n            self.batches += 1", "batch admission unlocked"),
    ("DLK/RACE", "src/repro/messaging/sharded.py", LOCK + "            self._closed = True",
     "if True:\n            self._closed = True", "close unlocked"),
    ("DLK/RACE", "src/repro/snmp/manager.py", "with self._mu:\n            request_id = self._next_request_id",
     "if True:\n            request_id = self._next_request_id", "request ids allocated unlocked"),
    ("DLK/RACE", "src/repro/snmp/manager.py", "with self._mu:\n            breaker = self._breakers.get(agent)",
     "if True:\n            breaker = self._breakers.get(agent)", "breaker lazily built unlocked"),
    ("DLK/RACE", "src/repro/snmp/manager.py", "                with self._mu:\n                    response = self."
     "_responses.pop(key, None)\n", "                response = self._responses.pop(key, None)\n",
     "reply claimed unlocked"),
    # -- repo lint: a bare except, a mutable default, a directly built transport
    ("LNT", "src/repro/messaging/transport.py", "        except WireError:\n            self.drop(",
     "        except:\n            self.drop(", "bare except on the endpoint's decode"),
    ("LNT", "src/repro/messaging/transport.py", "        except RtpError:\n            self.drop(",
     "        except:\n            self.drop(", "bare except on the endpoint's ingest"),
    ("LNT", "src/repro/core/client.py", "        except EventError:\n            # undecodable event",
     "        except:\n            # undecodable event", "bare except on the wired client's decode"),
    ("LNT", "src/repro/snmp/agent.py", "        except (BerError, SnmpProtocolError):\n            self.decode_failures",
     "        except:\n            self.decode_failures", "bare except on the agent's decode"),
    ("LNT", "src/repro/network/multicast.py", "        except NetworkError:", "        except:",
     "bare except in the multicast fabric"),
    ("LNT", "src/repro/core/client.py", "kinds: tuple[str, ...] = ()", "kinds: list = []",
     "request_history's kinds default is a shared list"),
    ("LNT", "src/repro/network/faults.py", "events: Iterable[FaultEvent] = ()", "events: list = []",
     "FaultPlan's events default is a shared list"),
    ("LNT", "src/repro/core/wireless_client.py", "from ..messaging.rtp import RtpError\n",
     "from ..messaging.rtp import RtpError, RtpPacketizer\n_UPLINK = RtpPacketizer(0)\n",
     "wireless client builds its own packetizer"),
    ("LNT", "src/repro/core/basestation.py", "from ..messaging.rtp import RtpError\n",
     "from ..messaging.rtp import RtpError, RtpReassembler\n_RADIO = RtpReassembler(lambda ssrc, payload: None)\n",
     "base station builds its own reassembler"),
)


def imported_modules(path: Path) -> set[str]:
    """Every module ``path`` imports (``from a import b`` names both a and a.b)."""
    mods: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            mods.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            mods.add(node.module)
            mods.update(f"{node.module}.{a.name}" for a in node.names)
    return mods


def run(cmd: list[str], tree: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return -1


def checkout(dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    origin = subprocess.run([PY, "-c", "import repro; print(repro.__file__)"], cwd=dest, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(dest / "src")}).stdout.strip()
    if not Path(origin).resolve().is_relative_to(dest.resolve() / "src"):
        raise SystemExit(f"repro was imported from {origin}, not from {dest}")
    return dest


def codes(tree: Path) -> Counter:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([PY, "-m", "repro.analysis", "--format", "json", "--fail-on", "never"], cwd=tree,
                         env=env, capture_output=True, text=True, timeout=TIMEOUT)
    if out.returncode != 0:  # the analyzer itself broke: it reports nothing
        return Counter()
    return Counter(d["code"] for d in json.loads(out.stdout)["diagnostics"])


def census(seed: tuple[str, str, str, str, str], baseline: Counter) -> tuple[bool, bool, bool]:
    family, path, old, new, _ = seed
    with tempfile.TemporaryDirectory() as tmp:
        tree = checkout(Path(tmp))
        target = tree / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{path}: the seed's old text occurs {text.count(old)} times, not once")
        target.write_text(text.replace(old, new), encoding="utf-8")
        found = codes(tree)
        by_family = any(found[c] > baseline[c] for c in found if c.startswith(CODES[family]))
        module = path.removeprefix("src/").removesuffix(".py").replace("/", ".")
        focus = sorted(str(t.relative_to(tree)) for t in (tree / "tests").rglob("test_*.py")
                       if "analysis" not in t.parts and module in imported_modules(t))
        by_tier1 = (run(PYTEST + focus + ["tests/test_examples.py", "tests/experiments"], tree) != 0
                    or run(PYTEST + ["tests"], tree) != 0)
        by_fuzz = path in CODEC_FILES and run([PY, "-m", "repro.analysis.wirefuzz", "--seed", "1337"], tree) != 0
    return by_family, by_tier1, by_fuzz


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tree = checkout(Path(tmp))
        baseline = codes(tree)
        # a seed counts as caught only if the unmutated tree passes
        if run(PYTEST + ["tests"], tree) or run([PY, "-m", "repro.analysis.wirefuzz", "--seed", "1337"], tree):
            raise SystemExit("tier-1 or wirefuzz fails on HEAD itself")
    print(f"HEAD reports {sum(baseline.values())} diagnostic(s); {len(SEEDS)} seeds")
    rows: dict[str, Counter] = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for (family, path, _, _, what), (fam, tier1, fuzz) in zip(SEEDS, pool.map(lambda s: census(s, baseline), SEEDS)):
            print(f"{family:<9}{'family' if fam else '-':<8}{'tier-1' if tier1 else '-':<8}"
                  f"{'fuzz' if fuzz else '-':<6}{path}: {what}", flush=True)
            row = rows.setdefault(family, Counter())
            row.update(seeds=1, family=fam, tier1=tier1, fuzz=fuzz, other=tier1 or fuzz,
                       only=fam and not (tier1 or fuzz))
    print(f"\n{'family':<10}{'seeds':>6}{'family':>8}{'tier-1':>8}{'fuzz':>6}{'either':>8}{'family only':>13}")
    for family, row in rows.items():
        print(f"{family:<10}{row['seeds']:>6}{row['family']:>8}{row['tier1']:>8}{row['fuzz']:>6}"
              f"{row['other']:>8}{row['only']:>13}")


if __name__ == "__main__":
    main()
