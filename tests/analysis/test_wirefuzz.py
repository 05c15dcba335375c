"""Differential fuzz harness suite.

Pins three layers: the registry itself (every shipped codec is
registered with its declared error class), the harness mechanics (a
deliberately broken codec IS caught; runs are seed-deterministic), and
the hypothesis-driven round-trip property for every registered pair.
"""

import ast
import dataclasses
import os
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import wirefuzz
from repro.analysis.wirefuzz import (
    FuzzCodecPair,
    default_registry,
    fuzz_pair,
    fuzz_registry,
    main,
)

REGISTRY = default_registry()

SRC_REPRO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro"))

#: codec module -> the name prefix of the registered pairs that fuzz it
FUZZED = {
    os.path.join("core", "events.py"): "events.",
    os.path.join("messaging", "rtp.py"): "rtp.",
    os.path.join("messaging", "serialization.py"): "serialization.",
    os.path.join("media", "progressive.py"): "progressive.",
    os.path.join("media", "sketch.py"): "sketch.",
    os.path.join("snmp", "ber.py"): "ber.",
    os.path.join("snmp", "pdu.py"): "snmp.",
}

#: files with a codec pair that no registered pair fuzzes -> why
UNFUZZED = {
    os.path.join("media", "ezw.py"): "array <-> EzwEncoded, not bytes; its bits are fuzzed in ImagePacket",
}

PAIR_NAMES = (("to_bytes", "from_bytes"), ("to_body", "from_body"), ("encode", "decode"))


def defines_codec_pair(tree):
    """Whether a module defines an encoder/decoder pair by naming convention:
    a class with ``to_bytes``/``from_bytes``, ``to_body``/``from_body`` or
    ``encode``/``decode``, or module functions ``encode_X``/``decode_X`` or
    ``X_encode``/``X_decode``."""
    functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        if any(enc in methods and dec in methods for enc, dec in PAIR_NAMES):
            return True
    return any(
        (name.startswith("encode") and "decode" + name[6:] in functions)
        or (name.endswith("_encode") and name[:-7] + "_decode" in functions)
        for name in functions
    )


class TestRegistry:
    def test_covers_every_shipped_codec_family(self):
        """A new codec cannot ship unfuzzed: every ``src/repro`` file that
        defines a codec pair is fuzzed by some registered pair, or is
        listed in :data:`UNFUZZED`."""
        assert len({p.name for p in REGISTRY}) == len(REGISTRY), "duplicate pair names"
        discovered = set()
        for dirpath, _, files in os.walk(SRC_REPRO):
            for name in files:
                path = os.path.join(dirpath, name)
                if name.endswith(".py"):
                    with open(path, encoding="utf-8") as fh:
                        if defines_codec_pair(ast.parse(fh.read())):
                            discovered.add(os.path.relpath(path, SRC_REPRO))
        assert discovered == set(FUZZED) | set(UNFUZZED)
        for prefix in FUZZED.values():
            assert any(p.name.startswith(prefix) for p in REGISTRY), prefix

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

    def test_main_reports_each_failure(self, monkeypatch, capsys):
        """Each crash is printed with its pair, property and input."""
        first = dataclasses.replace(self._broken_pair(), name="test.first")
        second = dataclasses.replace(self._broken_pair(), name="test.second")
        monkeypatch.setattr(wirefuzz, "default_registry", lambda: [first, second])
        assert main(["--seed", "1", "--rounds", "1"]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("fuzzed 2 codec pair(s): 2 round-trips")
        header, *lines = err.splitlines()
        assert header == "2 FAILURE(S):"
        assert [line.split(": error: ")[0] for line in lines] == [
            "  [test.first] truncation",
            "  [test.second] truncation",
        ]
        assert all("(input " in line for line in lines)

    def test_ci_command_runs_clean_in_a_fresh_process(self):
        """CI's ``python -m repro.analysis.wirefuzz --seed 1337`` warns of
        nothing (runpy warns when the package has imported the module it is
        about to run) and fuzzes every pair as many times as it always has."""
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.analysis.wirefuzz", "--seed", "1337"],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC_REPRO)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[0] == (
            "fuzzed 19 codec pair(s): 152 round-trips, 6707 truncations, 2432 bit-flips (seed 1337)"
        )


@pytest.mark.parametrize("pair", REGISTRY, ids=[p.name for p in REGISTRY])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_round_trip_property(pair, seed):
    """decode(encode(x)) == x for every registered codec, any sample."""
    rng = random.Random(seed)
    value = pair.sample(rng)
    decoded = pair.decode(pair.encode(value))
    assert pair.equal(value, decoded), pair.name
