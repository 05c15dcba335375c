"""Differential fuzz harness suite.

Pins three layers: the registry itself (every shipped codec is
registered with its declared error class), the harness mechanics (a
deliberately broken codec IS caught; runs are seed-deterministic), and
the hypothesis-driven round-trip property for every registered pair.
"""

import ast
import os
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.wireformat import _discover_pairs
from repro.analysis.wirefuzz import (
    FuzzCodecPair,
    default_registry,
    fuzz_pair,
    fuzz_registry,
    main,
)

REGISTRY = default_registry()

SRC_REPRO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro"))

#: files with a discovered codec pair that no registered pair fuzzes -> why
UNFUZZED = {
    os.path.join("media", "ezw.py"): "array <-> EzwEncoded, not bytes; its bits are fuzzed in ImagePacket",
}


class TestRegistry:
    def test_covers_every_shipped_codec_family(self):
        """A new codec cannot ship unfuzzed: every ``src/repro`` file in
        which static discovery finds a codec pair is some registered
        pair's ``static_file``, or is listed in :data:`UNFUZZED`."""
        assert len({p.name for p in REGISTRY}) == len(REGISTRY), "duplicate pair names"
        discovered = set()
        for dirpath, _, files in os.walk(SRC_REPRO):
            for name in files:
                path = os.path.join(dirpath, name)
                if name.endswith(".py"):
                    with open(path, encoding="utf-8") as fh:
                        if _discover_pairs(ast.parse(fh.read())):
                            discovered.add(os.path.relpath(path, SRC_REPRO))
        fuzzed = {os.path.relpath(p.static_file, SRC_REPRO) for p in REGISTRY}
        assert discovered - fuzzed == set(UNFUZZED)
        assert fuzzed <= discovered

    def test_every_event_class_is_registered(self):
        from repro.core import events as ev

        event_classes = {
            name
            for name, obj in vars(ev).items()
            if isinstance(obj, type)
            and obj is not ev.Event
            and issubclass(obj, ev.Event)
        }
        registered = {
            p.name.split(".", 1)[1] for p in REGISTRY if p.name.startswith("events.")
        }
        assert registered == event_classes

    def test_expected_errors_are_declared_classes_not_valueerror(self):
        for pair in REGISTRY:
            for err in pair.expected_errors:
                assert issubclass(err, Exception)
                assert err is not ValueError, (
                    f"{pair.name}: catching bare ValueError would mask"
                    " UnicodeDecodeError-style crashes"
                )

    def test_static_files_exist(self):
        for pair in REGISTRY:
            assert os.path.exists(pair.static_file), pair.name


class TestHarnessMechanics:
    @staticmethod
    def _broken_pair():
        # decoder unpacks without any bounds check: truncation crashes
        return FuzzCodecPair(
            name="test.broken",
            encode=lambda v: struct.pack(">I", v),
            decode=lambda raw: struct.unpack(">I", raw)[0],
            sample=lambda rng: rng.randrange(2**32),
            expected_errors=(KeyError,),  # struct.error is NOT declared
            static_file="does-not-matter.py",
        )

    def test_broken_codec_is_caught(self):
        report = fuzz_pair(self._broken_pair(), seed=1, rounds=2)
        assert report.failures
        assert {f.property for f in report.failures} <= {
            "round-trip",
            "truncation",
            "bit-flip",
        }
        assert any(f.property == "truncation" for f in report.failures)

    def test_asymmetric_codec_fails_round_trip(self):
        pair = FuzzCodecPair(
            name="test.lossy",
            encode=lambda v: struct.pack(">I", v),
            decode=lambda raw: struct.unpack(">H", raw[:2])[0],  # drops half
            sample=lambda rng: rng.randrange(2**32),
            expected_errors=(KeyError,),
            static_file="does-not-matter.py",
        )
        report = fuzz_pair(pair, seed=1, rounds=2)
        assert any(f.property == "round-trip" for f in report.failures)

    def test_same_seed_is_deterministic(self):
        a = fuzz_pair(self._broken_pair(), seed=42, rounds=3)
        b = fuzz_pair(self._broken_pair(), seed=42, rounds=3)
        assert [str(f) for f in a.failures] == [str(f) for f in b.failures]
        assert (a.rounds, a.truncations, a.flips) == (b.rounds, b.truncations, b.flips)

    def test_registry_survives_fixed_seed(self):
        report = fuzz_registry(rounds=2, seed=1337)
        assert report.failures == []
        assert report.rounds == 2 * len(REGISTRY)
        assert report.truncations > 0 and report.flips > 0

    def test_main_exit_status(self, capsys):
        assert main(["--seed", "1337", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "no uncaught decoder exception" in out


@pytest.mark.parametrize("pair", REGISTRY, ids=[p.name for p in REGISTRY])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_round_trip_property(pair, seed):
    """decode(encode(x)) == x for every registered codec, any sample."""
    rng = random.Random(seed)
    value = pair.sample(rng)
    decoded = pair.decode(pair.encode(value))
    assert pair.equal(value, decoded), pair.name
