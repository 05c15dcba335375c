"""Repo lint rules (LNT00x) and inline suppression."""

import os

from repro.analysis import Severity, lint_paths, lint_source

BARE_EXCEPT = (
    "try:\n"
    "    dispatch()\n"
    "except:\n"
    "    pass\n"
)

MUTABLE_DEFAULT = (
    "def handler(queue=[]):\n"
    "    queue.append(1)\n"
)

TRANSPORT_CONSTRUCTION = (
    "from repro.messaging.rtp import RtpReassembler\n"
    "\n"
    "reassembler = RtpReassembler(print)\n"
)


class TestBareExcept:
    def test_error_on_dispatch_path(self):
        diags = lint_source(BARE_EXCEPT, "src/repro/messaging/broker.py")
        assert [(d.code, d.severity) for d in diags] == [("LNT001", Severity.ERROR)]
        assert diags[0].line == 3

    def test_warning_elsewhere(self):
        diags = lint_source(BARE_EXCEPT, "tools/util.py")
        assert [(d.code, d.severity) for d in diags] == [("LNT001", Severity.WARNING)]


class TestMutableDefault:
    def test_error_in_core(self):
        diags = lint_source(MUTABLE_DEFAULT, "src/repro/core/profiles.py")
        assert [(d.code, d.severity) for d in diags] == [("LNT002", Severity.ERROR)]

    def test_warning_outside_core(self):
        diags = lint_source(MUTABLE_DEFAULT, "examples/demo.py")
        assert [(d.code, d.severity) for d in diags] == [("LNT002", Severity.WARNING)]

    def test_keyword_only_defaults_checked(self):
        source = "def f(*, cache={}):\n    return cache\n"
        diags = lint_source(source, "src/repro/core/x.py")
        assert [d.code for d in diags] == ["LNT002"]

    def test_call_constructors_flagged(self):
        source = "def f(seen=set()):\n    return seen\n"
        assert [d.code for d in lint_source(source, "a.py")] == ["LNT002"]

    def test_immutable_defaults_pass(self):
        source = "def f(n=3, name='x', pair=(1, 2)):\n    return n\n"
        assert lint_source(source, "src/repro/core/x.py") == []


class TestTransportInjection:
    def test_construction_outside_transport_modules_flagged(self):
        diags = lint_source(TRANSPORT_CONSTRUCTION, "examples/demo.py")
        assert [d.code for d in diags] == ["LNT003"]

    def test_transport_modules_are_exempt(self):
        assert lint_source(TRANSPORT_CONSTRUCTION, "src/repro/messaging/rtp.py") == []

    def test_attribute_call_flagged_too(self):
        source = "import repro.messaging.rtp as rtp\nt = rtp.RtpReassembler(print)\n"
        assert [d.code for d in lint_source(source, "examples/demo.py")] == ["LNT003"]

    WIRE_STACK_COPY = (
        "from repro.messaging.rtp import RtpPacketizer, RtpReassembler\n"
        "class Gateway:\n"
        "    def __init__(self, on_payload):\n"
        "        self._out = RtpPacketizer(7)\n"
        "        self._in = RtpReassembler(on_payload)\n"
    )

    def test_a_further_copy_of_the_wire_stack_in_core_is_flagged(self):
        diags = lint_source(self.WIRE_STACK_COPY, "src/repro/core/gateway.py")
        assert [d.code for d in diags] == ["LNT003", "LNT003"]
        assert all("SemanticWire" in d.message for d in diags)

    def test_the_wire_stack_is_built_under_messaging(self):
        assert lint_source(self.WIRE_STACK_COPY, "src/repro/messaging/transport.py") == []


class TestSuppression:
    def test_named_code_suppressed_on_line(self):
        source = "def f(x=[]):  # repro: ignore[LNT002]\n    return x\n"
        assert lint_source(source, "a.py") == []

    def test_bare_ignore_suppresses_everything(self):
        source = "reassembler = RtpReassembler(print)  # repro: ignore\n"
        assert lint_source(source, "examples/demo.py") == []

    def test_other_codes_still_reported(self):
        source = "def f(x=[]):  # repro: ignore[LNT001]\n    return x\n"
        assert [d.code for d in lint_source(source, "a.py")] == ["LNT002"]

    def test_programmatic_ignore(self):
        diags = lint_source(BARE_EXCEPT, "src/repro/messaging/b.py", ignore=["LNT001"])
        assert diags == []


class TestFileWalk:
    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def broken(:\n", "a.py")
        assert len(diags) == 1
        assert diags[0].code == "LNT001"
        assert "does not parse" in diags[0].message

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(MUTABLE_DEFAULT)
        (pkg / "good.py").write_text("x = 1\n")
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "junk.py").write_text("def broken(:\n")
        diags = lint_paths([str(tmp_path)])
        assert [d.code for d in diags] == ["LNT002"]
        assert not any("__pycache__" in (d.file or "") for d in diags)

    def test_lint_paths_accepts_single_file(self, tmp_path):
        f = tmp_path / "one.py"
        f.write_text("def f(x=[]):\n    return x\n")
        diags = lint_paths([str(f)])
        assert [d.code for d in diags] == ["LNT002"]
        assert diags[0].file == str(f)


def test_shipped_source_tree_is_lint_clean():
    root = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
    diags = lint_paths([os.path.join(root, "src", "repro")])
    assert [d for d in diags if d.severity is Severity.ERROR] == []
