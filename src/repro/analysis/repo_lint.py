"""Repository lint: custom AST rules + selector-literal extraction.

This pass reads Python source files (it never imports them) and applies
two kinds of checks:

* **Code rules** over the parsed :mod:`ast`:

  - ``LNT001`` — bare ``except:`` swallows everything, including
    ``KeyboardInterrupt``; in dispatch paths (``messaging/``, the
    matching/inference modules) that silently drops traffic, which is an
    error; elsewhere it is a warning.
  - ``LNT002`` — mutable default arguments (``def f(x=[])``): shared
    state across calls; error inside ``core/``, warning elsewhere.
  - ``LNT003`` — constructing a transport (``SimTransport``,
    ``LoopbackUDP``, ...) anywhere but the transport modules themselves:
    transports must be injected so tests and simulations can substitute
    them.

* **Config extraction**: string literals that are clearly selector
  sources — ``Selector("...")``, ``parse("...")``,
  ``.set_interest("...")``, ``interest=``/``selector=`` keyword
  arguments, and the second argument of ``SemanticMessage.create`` — are
  collected and run through the selector analyzer, so unsatisfiable or
  vacuous selectors in ``examples/`` and ``experiments/`` fail CI before
  they silently drop traffic at run time.

Inline suppressions (``# repro: ignore[CODE]``) apply to both kinds; see
:mod:`repro.analysis.diagnostics`.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Iterator, Optional

from .diagnostics import Diagnostic, filter_diagnostics, parse_suppressions, rule_severity
from .selector_analysis import selector_diagnostics

__all__ = [
    "lint_source",
    "lint_file",
    "lint_paths",
    "extract_selector_literals",
    "TRANSPORT_NAMES",
    "TRANSPORT_MODULE_ALLOWLIST",
]

#: class names whose direct construction outside transport modules is flagged
TRANSPORT_NAMES = frozenset(
    {"SimTransport", "LoopbackUDP", "RealUdpTransport", "UdpTransport", "DatagramTransport"}
)

#: path fragments where constructing a transport is legitimate
TRANSPORT_MODULE_ALLOWLIST = (
    "messaging/transport.py",
    "network/udp.py",
    "snmp/realudp.py",
)

#: path fragments treated as dispatch-critical for LNT001
DISPATCH_PATH_FRAGMENTS = (
    "messaging/",
    "core/matching",
    "core/inference",
    "core/events",
)

_MUTABLE_CALLS = {"list", "dict", "set"}


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _is_dispatch_path(path: str) -> bool:
    p = _norm(path)
    return any(frag in p for frag in DISPATCH_PATH_FRAGMENTS)


def _is_core_path(path: str) -> bool:
    return "core/" in _norm(path)


def _is_transport_module(path: str) -> bool:
    p = _norm(path)
    return any(p.endswith(frag) or frag in p for frag in TRANSPORT_MODULE_ALLOWLIST)


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# ----------------------------------------------------------------------
# selector literal extraction
# ----------------------------------------------------------------------
def extract_selector_literals(
    tree: ast.AST,
) -> Iterator[tuple[str, int, int]]:
    """Yield ``(selector_text, line, column)`` for every constant string
    that flows into a selector position."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        candidates: list[ast.expr] = []
        if name in ("Selector", "parse", "set_interest", "match_selector", "compile_selector"):
            if node.args:
                candidates.append(node.args[0])
        if name == "create" and len(node.args) >= 2:
            # SemanticMessage.create(sender, selector, ...)
            candidates.append(node.args[1])
        for kw in node.keywords:
            if kw.arg in ("interest", "selector"):
                candidates.append(kw.value)
        for arg in candidates:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield arg.value, arg.lineno, arg.col_offset + 1


# ----------------------------------------------------------------------
# per-file lint
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str,
    *,
    ignore: Iterable[str] = (),
    analyze_selectors: bool = True,
) -> list[Diagnostic]:
    """All repo-lint diagnostics for one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [
            Diagnostic(
                "LNT001",
                rule_severity("LNT001", in_hot_scope=False),
                f"file does not parse: {err.msg}",
                subject=path,
                file=path,
                line=err.lineno,
                column=err.offset,
            )
        ]

    out: list[Diagnostic] = []
    dispatch = _is_dispatch_path(path)
    core = _is_core_path(path)
    transport_ok = _is_transport_module(path)

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append(
                Diagnostic(
                    "LNT001",
                    rule_severity("LNT001", in_hot_scope=dispatch),
                    "bare `except:` swallows every exception"
                    + (" on a dispatch path" if dispatch else ""),
                    subject=path,
                    file=path,
                    line=node.lineno,
                    column=node.col_offset + 1,
                )
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    out.append(
                        Diagnostic(
                            "LNT002",
                            rule_severity("LNT002", in_hot_scope=core),
                            f"mutable default argument in {node.name}():"
                            " shared across every call",
                            subject=f"{path}:{node.name}",
                            file=path,
                            line=default.lineno,
                            column=default.col_offset + 1,
                        )
                    )
        elif isinstance(node, ast.Call) and not transport_ok:
            name = _call_name(node)
            if name in TRANSPORT_NAMES:
                out.append(
                    Diagnostic(
                        "LNT003",
                        rule_severity("LNT003"),
                        f"{name} constructed directly; transports must be"
                        " injected so simulations and tests can substitute them",
                        subject=path,
                        file=path,
                        line=node.lineno,
                        column=node.col_offset + 1,
                    )
                )

    if analyze_selectors:
        for text, line, column in extract_selector_literals(tree):
            for d in selector_diagnostics(text, subject=f"{path}:{line}"):
                out.append(d.at(path, line, column))

    return filter_diagnostics(
        out, ignore=ignore, suppressions=parse_suppressions(source)
    )


def lint_file(path: str, *, ignore: Iterable[str] = ()) -> list[Diagnostic]:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, path, ignore=ignore)


def _walk_py_files(paths: Iterable[str]) -> list[str]:
    """Every ``.py`` file under each path, in deterministic walk order."""
    files: list[str] = []
    for root in paths:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__pycache__")))
            files.extend(
                os.path.join(dirpath, fn) for fn in sorted(filenames) if fn.endswith(".py")
            )
    return files


def lint_paths(paths: Iterable[str], *, ignore: Iterable[str] = ()) -> list[Diagnostic]:
    """Lint every ``.py`` file under each path (files are taken as-is)."""
    ignore = tuple(ignore)
    return [d for path in _walk_py_files(paths) for d in lint_file(path, ignore=ignore)]
