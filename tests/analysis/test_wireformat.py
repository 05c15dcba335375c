"""Unit suite for the wire-format decode-safety verifier.

The golden corpus (``corpus_wire/``) pins whole-file behaviour; these
tests pin the rule mechanics on minimal inline codecs — pair discovery,
WIRE002's trigger and non-trigger, and suppressions.
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


UNGUARDED = """
    import struct

    def encode_probe(kind):
        return struct.pack(">B", kind)

    def decode_probe(raw: bytes):
        return raw[0]
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
                (seq,) = struct.unpack_from(">H", raw, 0)
                return seq

            def pong_encode(seq):
                return struct.pack(">H", seq)

            def pong_decode(raw: bytes):
                return raw[0]
            """
        )
        assert found == ["WIRE002", "WIRE002"]

    def test_unpaired_functions_are_not_analyzed(self):
        assert codes(
            """
            def decode_orphan(raw: bytes):
                return raw[0]
            """
        ) == []


class TestWire002DecodeSafety:
    def test_unguarded_subscript_flagged(self):
        found = diags(UNGUARDED)
        assert [d.code for d in found] == ["WIRE002"]
        assert found[0].severity is Severity.ERROR
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

    @pytest.mark.parametrize(
        "window, flagged",
        [("0:4", True), ("pos:pos + 4", True), ("pos + 1:pos + 5", True), ("pos:end", False), ("4:4", False)],
    )
    def test_fixed_width_from_bytes_slice(self, window, flagged):
        """Only a slice of constant width is a fixed-width read."""
        found = codes(
            f"""
            def encode_count(n):
                return n.to_bytes(4, "big")

            def decode_count(raw: bytes, pos=0, end=4):
                return int.from_bytes(raw[{window}], "big")
            """
        )
        assert found == (["WIRE002"] if flagged else [])

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


class TestEntryPoints:
    def test_ignore_filters_codes(self):
        assert diags(UNGUARDED, ignore=("WIRE002",)) == []

    def test_inline_suppression_respected(self):
        suppressed = UNGUARDED.replace("return raw[0]", "return raw[0]  # repro: ignore[WIRE002]")
        assert codes(suppressed) == []

    def test_syntax_error_produces_no_diagnostics(self):
        assert wire_source("def broken(:", "mem.py") == []

    def test_shipped_tree_is_wire_clean(self):
        paths = [
            os.path.join(REPO_ROOT, "src", "repro"),
            os.path.join(REPO_ROOT, "examples"),
        ]
        assert analyze_wireformat([p for p in paths if os.path.exists(p)]) == []
