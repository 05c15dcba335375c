"""The pass framework itself: the family registry and the shared scans."""

import json
import os
import re

import repro.analysis.passes as passes
from repro.analysis import (
    FAMILIES,
    RULES,
    build_call_graph_from_sources,
    lint_source,
    run_analysis,
)
from repro.analysis.__main__ import main
from repro.analysis.passes import delivery_registrations, reachable

from .corpus_common import CORPORA, HERE
from .test_dataflow_corpus import BAD_EXC, BAD_UNITS
from .test_repo_lint import BARE_EXCEPT, MUTABLE_DEFAULT, TRANSPORT_CONSTRUCTION

SOURCE_FAMILY_PREFIXES = ("UNI", "EXC", "PERF", "DLK", "RACE", "WIRE", "LNT")

#: every source-tree rule, by the family that owns it — each one fired on
#: the shipped tree in some commit, or shares its machinery with one that
#: did (the census in docs/analysis.md)
OWNED = {
    "repo-lint": {"LNT001", "LNT002", "LNT003"},
    "wire": {"WIRE002"},
    "dataflow": {"UNI001", "UNI002", "UNI003", "UNI004", "UNI005", "EXC001", "EXC002", "EXC003"},
    "perf": {"PERF001", "PERF004"},
    "concurrency": {"DLK001", "DLK002", "DLK003", "RACE001", "RACE002", "RACE003"},
}

#: configuration rules: selectors (extracted from source by repo-lint, and
#: checked at attach time), policies and profiles
CONFIG = {f"SEL00{i}" for i in range(1, 7)} | {f"POL00{i}" for i in range(1, 7)} | {
    f"PRO00{i}" for i in range(1, 4)
}


class TestRegistry:
    def test_every_source_rule_is_owned_by_exactly_one_family(self):
        for code in RULES:
            prefix = re.match(r"[A-Z]+", code).group()
            owners = [f.name for f in FAMILIES if prefix in f.prefixes]
            if prefix in SOURCE_FAMILY_PREFIXES:
                assert len(owners) == 1, (code, owners)
            else:  # SEL rides repo-lint's literal extraction; POL/PRO are not source rules
                assert len(owners) <= 1, (code, owners)

    def test_rules_are_exactly_the_family_codes_plus_config_rules(self):
        assert set(RULES) == set().union(*OWNED.values()) | CONFIG
        assert len(RULES) == 35
        for family in FAMILIES:
            owned = {c for c in RULES if c.startswith(family.prefixes)} - CONFIG
            assert owned == OWNED[family.name], family.name

    def test_every_source_rule_fires_in_a_corpus(self):
        """A rule with no known-bad case cannot show it still works."""
        fired = set()
        for family in CORPORA:
            with open(os.path.join(HERE, f"corpus_{family}", "expected_diagnostics.json")) as fh:
                fired |= {entry["code"] for entry in json.load(fh)}
        # each of these BAD cases is asserted to fire by its own test
        fired |= {code for _, _, code in BAD_UNITS + BAD_EXC}
        for source in (BARE_EXCEPT, MUTABLE_DEFAULT, TRANSPORT_CONSTRUCTION):
            fired |= {d.code for d in lint_source(source, "examples/demo.py")}
        assert set().union(*OWNED.values()) <= fired

    def test_every_owned_prefix_names_real_rules(self):
        known = {re.match(r"[A-Z]+", code).group() for code in RULES}
        for family in FAMILIES:
            assert set(family.prefixes) <= known, family.name
            assert family.scope in ("file", "graph"), family.name

    def test_families_only_report_codes_they_own(self, tmp_path):
        # one file tripping a per-file and a graph family
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def f(x=[]):\n"
            "    pass\n"
            "def g(delay_ms, size_bytes):\n"
            "    return delay_ms + size_bytes\n"
        )
        graph = build_call_graph_from_sources([(str(bad), bad.read_text())])
        seen = set()
        for family in FAMILIES:
            args = (bad.read_text(), str(bad)) if family.scope == "file" else (graph,)
            for d in family.produce(*args):
                assert d.code.startswith(family.prefixes), (family.name, d.code)
                seen.add(d.code)
        assert {"LNT002", "UNI001"} <= seen

    def test_profile_prints_one_timing_per_row(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--no-defaults", "--profile"]) == 0
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert line.startswith("profile: ")
        for family in FAMILIES:
            assert len(re.findall(rf"\b{re.escape(family.name)} \d+\.\d+s", line)) == 1

    def test_suppressions_are_parsed_once_per_file_per_run(self, tmp_path, monkeypatch):
        for name in ("a.py", "b.py", "c.py"):
            (tmp_path / name).write_text("def f(x=[]):  # repro: ignore[LNT002]\n    pass\n")
        calls = []
        real = passes.parse_suppressions
        monkeypatch.setattr(
            passes, "parse_suppressions", lambda src: calls.append(1) or real(src)
        )
        (tmp_path / "clean.py").write_text("x = 1\n")  # no finding: never parsed
        report = run_analysis([str(tmp_path)], include_defaults=False)
        assert report.diagnostics == ()  # the suppression was honoured
        assert len(calls) == 3  # once per file with a finding, not per family


REGISTRATIONS = """
class Bus:
    pass

class Client:
    def __init__(self, net, bus: SemanticBus, sock):
        self.ep = SemanticEndpoint(net, "h", "g", None, self._on_delivery)
        self.alt = UnicastSemanticLink(net, "h", self._on_alt)
        self.traps = TrapListener(net, "h", self._on_trap)
        self.reasm = RtpReassembler(self._on_payload)
        sock.on_receive = self._on_datagram
        self.link = Link(on_delivery=self._on_link)
        bus.attach(None, self._on_bus)
        self.fabric.attach(None, self._not_a_bus)

    def _on_delivery(self, d): self._helper()
    def _on_alt(self, d): pass
    def _on_trap(self, t): pass
    def _on_payload(self, s, p): pass
    def _on_datagram(self, d, s): pass
    def _on_link(self, m): pass
    def _on_bus(self, d): pass
    def _not_a_bus(self, d): pass
    def _helper(self): self._leaf()
    def _leaf(self): pass
    def _unrelated(self): pass
"""


class TestSharedScans:
    def graph(self):
        return build_call_graph_from_sources([("pkg/client.py", REGISTRATIONS)])

    def test_one_scan_sees_every_registration_slot(self):
        regs = delivery_registrations(self.graph())
        assert sorted(r.target.rsplit(".", 1)[-1] for r in regs) == [
            "_on_alt",
            "_on_bus",
            "_on_datagram",
            "_on_delivery",
            "_on_link",
            "_on_payload",
            "_on_trap",
        ]
        assert {r.registrar.name for r in regs} == {"__init__"}

    def test_reachable_is_the_forward_closure_including_roots(self):
        graph = self.graph()
        cls = "client.Client."
        got = reachable(graph, [cls + "_on_delivery", "no.such.function"])
        assert got == {cls + "_on_delivery", cls + "_helper", cls + "_leaf"}
