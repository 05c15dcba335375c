"""Unit suite for the wire-format symmetry & decode-safety verifier.

The golden corpus (``corpus_wire/``) pins whole-file behaviour; these
tests pin the individual rule mechanics on minimal inline codecs —
pair discovery, the abstract layout interpreter, each WIRE rule's
trigger and non-trigger, suppressions, and parallel-run identity.
"""

import os
import textwrap

import pytest

from repro.analysis import Severity
from repro.analysis.wireformat import (
    PAIR_METHOD_NAMES,
    analyze_wireformat,
    wire_source,
)

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


def diags(source, **kw):
    return wire_source(textwrap.dedent(source), "mem.py", **kw)


def codes(source, **kw):
    return [d.code for d in diags(source, **kw)]


SYMMETRIC = """
    import struct

    class Err(ValueError):
        pass

    class Header:
        def to_bytes(self):
            return struct.pack(">HB", self.kind, self.flags)

        @classmethod
        def from_bytes(cls, raw: bytes):
            if len(raw) < 3:
                raise Err("truncated")
            kind, flags = struct.unpack_from(">HB", raw, 0)
            return cls(kind, flags)
"""


class TestPairDiscovery:
    def test_method_pair_names_cover_repo_conventions(self):
        assert ("to_bytes", "from_bytes") in PAIR_METHOD_NAMES
        assert ("to_body", "from_body") in PAIR_METHOD_NAMES
        assert ("encode", "decode") in PAIR_METHOD_NAMES

    def test_module_function_pairs_are_discovered(self):
        found = codes(
            """
            import struct

            def encode_ping(seq):
                return struct.pack(">H", seq)

            def decode_ping(raw: bytes):
                (seq,) = struct.unpack_from(">I", raw, 0)
                return seq
            """
        )
        assert "WIRE001" in found

    def test_explicit_wire_pairs_table(self):
        found = codes(
            """
            import struct

            WIRE_PAIRS = (("pack_kv", "unpack_kv"),)

            def pack_kv(key, value):
                return struct.pack(">B", key) + struct.pack(">H", value)

            def unpack_kv(raw: bytes):
                if len(raw) < 3:
                    raise ValueError("short")
                key = raw[0]
                (value,) = struct.unpack_from(">I", raw, 1)
                return key, value
            """
        )
        assert "WIRE001" in found

    def test_unpaired_functions_are_not_analyzed(self):
        assert codes(
            """
            def decode_orphan(raw: bytes):
                return raw[0]
            """
        ) == []


class TestWire001Symmetry:
    def test_symmetric_codec_is_clean(self):
        assert codes(SYMMETRIC) == []

    def test_width_mismatch_flagged(self):
        found = diags(SYMMETRIC.replace('">HB", raw', '">IB", raw'))
        assert [d.code for d in found] == ["WIRE001"]
        assert found[0].severity is Severity.ERROR
        assert "u16(be)" in found[0].message and "u32(be)" in found[0].message

    def test_endianness_mismatch_flagged(self):
        assert codes(SYMMETRIC.replace('"<HB", raw', '">HB", raw')) == []
        assert "WIRE001" in codes(SYMMETRIC.replace('">HB", raw', '"<HB", raw'))

    def test_field_order_mismatch_flagged(self):
        assert "WIRE001" in codes(SYMMETRIC.replace('">HB", raw', '">BH", raw'))

    def test_opaque_constructs_stop_comparison_without_flagging(self):
        # the encoder tail is unmodellable; nothing definite => silence
        assert codes(
            """
            import struct

            def encode_blob(kind, payload):
                return struct.pack(">B", kind) + transform(payload)

            def decode_blob(raw: bytes):
                if len(raw) < 1:
                    raise ValueError("short")
                return raw[0], raw[1:]
            """
        ) == []


class TestWire002DecodeSafety:
    def test_unguarded_subscript_flagged(self):
        found = diags(
            """
            import struct

            def encode_probe(kind):
                return struct.pack(">B", kind)

            def decode_probe(raw: bytes):
                return raw[0]
            """
        )
        assert [d.code for d in found] == ["WIRE002"]
        assert "decode_probe" in found[0].message

    def test_len_guard_suppresses(self):
        assert codes(
            """
            import struct

            def encode_probe(kind):
                return struct.pack(">B", kind)

            def decode_probe(raw: bytes):
                if len(raw) < 1:
                    raise ValueError("short")
                return raw[0]
            """
        ) == []

    def test_truthiness_guard_suppresses(self):
        assert codes(
            """
            import struct

            def encode_probe(kind):
                return struct.pack(">B", kind)

            def decode_probe(raw: bytes):
                if not raw:
                    raise ValueError("empty")
                return raw[0]
            """
        ) == []

    def test_while_len_condition_counts_as_guard(self):
        assert codes(
            """
            import struct

            def encode_tags(tags):
                out = bytearray()
                for tag in sorted(tags):
                    out += struct.pack(">H", tag)
                return bytes(out)

            def decode_tags(raw: bytes):
                tags = []
                pos = 0
                while pos + 2 <= len(raw):
                    (tag,) = struct.unpack_from(">H", raw, pos)
                    tags.append(tag)
                    pos += 2
                return tags
            """
        ) == []

    def test_reader_helper_is_scanned_transitively(self):
        found = codes(
            """
            import struct

            def _read_u32(raw, pos):
                (v,) = struct.unpack_from(">I", raw, pos)
                return v

            def encode_frame(a, b):
                return struct.pack(">II", a, b)

            def decode_frame(raw: bytes):
                if len(raw) < 8:
                    raise ValueError("short")
                return _read_u32(raw, 0), _read_u32(raw, 4)
            """
        )
        assert "WIRE002" in found  # the helper itself has no guard


class TestWire003CountConsistency:
    def test_encoder_prefix_loop_mismatch_flagged(self):
        found = diags(
            """
            import struct

            def encode_table(rows, extras):
                out = bytearray()
                out += struct.pack(">H", len(rows))
                for value in extras:
                    out += struct.pack(">I", value)
                return bytes(out)

            def decode_table(raw: bytes):
                if len(raw) < 2:
                    raise ValueError("short")
                (count,) = struct.unpack_from(">H", raw, 0)
                values = []
                pos = 2
                for _ in range(count):
                    if pos + 4 > len(raw):
                        raise ValueError("short row")
                    (value,) = struct.unpack_from(">I", raw, pos)
                    values.append(value)
                    pos += 4
                return values
            """
        )
        assert [d.code for d in found] == ["WIRE003"]
        assert "'rows'" in found[0].message and "'extras'" in found[0].message

    def test_consistent_prefix_is_clean(self):
        assert codes(
            """
            import struct

            def encode_table(rows):
                out = bytearray()
                out += struct.pack(">H", len(rows))
                for value in rows:
                    out += struct.pack(">I", value)
                return bytes(out)

            def decode_table(raw: bytes):
                if len(raw) < 2:
                    raise ValueError("short")
                (count,) = struct.unpack_from(">H", raw, 0)
                values = []
                pos = 2
                for _ in range(count):
                    if pos + 4 > len(raw):
                        raise ValueError("short row")
                    (value,) = struct.unpack_from(">I", raw, pos)
                    values.append(value)
                    pos += 4
                return values
            """
        ) == []


MAGIC_MODULE = """
    import struct

    MAGIC = b"MG"

    class Err(ValueError):
        pass

    class Frame:
        def to_bytes(self):
            return MAGIC + struct.pack(">H", self.seq)

        @classmethod
        def from_bytes(cls, raw: bytes):
            if len(raw) != 4:
                raise Err("length")
            if raw[:2] != MAGIC:
                raise Err("magic")
            (seq,) = struct.unpack_from(">H", raw, 2)
            return cls(seq)

    class Telemetry:
        def to_bytes(self):
            return struct.pack(">II", self.source, self.value)

        @classmethod
        def from_bytes(cls, raw: bytes):
            if len(raw) < 8:
                raise Err("short")
            source, value = struct.unpack_from(">II", raw, 0)
            return cls(source, value)
"""


class TestWire004MagicCollision:
    def test_variable_leading_field_collides_with_magic(self):
        found = diags(MAGIC_MODULE)
        assert [d.code for d in found] == ["WIRE004"]
        assert found[0].severity is Severity.WARNING
        assert "mis-dispatches" in found[0].message

    def test_magic_prefixed_peer_is_clean(self):
        clean = MAGIC_MODULE.replace(
            'return struct.pack(">II", self.source, self.value)',
            'return b"TL" + struct.pack(">II", self.source, self.value)',
        ).replace(
            'source, value = struct.unpack_from(">II", raw, 0)',
            'if raw[:2] != b"TL":\n'
            '                raise Err("magic")\n'
            '            source, value = struct.unpack_from(">II", raw, 2)',
        )
        assert codes(clean) == []

    def test_inline_suppression_respected(self):
        suppressed = MAGIC_MODULE.replace(
            'if raw[:2] != MAGIC:',
            'if raw[:2] != MAGIC:  # repro: ignore[WIRE004]',
        )
        assert codes(suppressed) == []


class TestWire005UnorderedIteration:
    def test_set_iteration_flagged(self):
        found = diags(
            """
            import struct

            def encode_tags(tags):
                out = bytearray()
                for tag in set(tags):
                    out += struct.pack(">H", tag)
                return bytes(out)

            def decode_tags(raw: bytes):
                tags = []
                pos = 0
                while pos + 2 <= len(raw):
                    (tag,) = struct.unpack_from(">H", raw, pos)
                    tags.append(tag)
                    pos += 2
                return tags
            """
        )
        assert [d.code for d in found] == ["WIRE005"]

    def test_sorted_iteration_is_clean(self):
        assert codes(
            """
            import struct

            def encode_tags(tags):
                out = bytearray()
                for tag in sorted(set(tags)):
                    out += struct.pack(">H", tag)
                return bytes(out)

            def decode_tags(raw: bytes):
                tags = []
                pos = 0
                while pos + 2 <= len(raw):
                    (tag,) = struct.unpack_from(">H", raw, pos)
                    tags.append(tag)
                    pos += 2
                return tags
            """
        ) == []


class TestEntryPoints:
    def test_ignore_filters_codes(self):
        assert diags(MAGIC_MODULE, ignore=("WIRE004",)) == []

    def test_syntax_error_produces_no_diagnostics(self):
        assert wire_source("def broken(:", "mem.py") == []

    def test_shipped_tree_is_wire_clean(self):
        paths = [
            os.path.join(REPO_ROOT, "src", "repro"),
            os.path.join(REPO_ROOT, "examples"),
        ]
        assert analyze_wireformat([p for p in paths if os.path.exists(p)]) == []
