"""Repository lint: custom AST rules.

This pass reads Python source files (it never imports them) and applies
three rules over the parsed :mod:`ast`:

* ``LNT001`` — bare ``except:`` swallows everything, including
  ``KeyboardInterrupt``; in dispatch paths (``messaging/``, the
  matching/inference modules) that silently drops traffic, which is an
  error; elsewhere it is a warning.
* ``LNT002`` — mutable default arguments (``def f(x=[])``): shared
  state across calls; error inside ``core/``, warning elsewhere.
* ``LNT003`` — constructing a half of the wire stack
  (``RtpPacketizer``, ``RtpReassembler``) outside ``messaging/``:
  message ↔ fragment ↔ datagram exists once, in ``SemanticWire``.

Inline suppressions (``# repro: ignore[CODE]``) apply; see
:mod:`repro.analysis.diagnostics`.
"""

from __future__ import annotations

import ast
import os

from .callgraph import rightmost_name
from .diagnostics import Diagnostic, rule_severity
from .passes import file_entry_points

__all__ = [
    "lint_findings",
    "lint_source",
    "lint_file",
    "lint_paths",
    "TRANSPORT_NAMES",
]

_ONE_WIRE = "the wire stack has one construction site, messaging.SemanticWire: bind that"

#: class name -> (path fragments where constructing it directly is
#: legitimate, why it is flagged anywhere else)
TRANSPORT_NAMES: dict[str, tuple[tuple[str, ...], str]] = {
    "RtpPacketizer": (("messaging/",), _ONE_WIRE),
    "RtpReassembler": (("messaging/",), _ONE_WIRE),
}

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


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


# ----------------------------------------------------------------------
# per-file lint
# ----------------------------------------------------------------------
def lint_findings(source: str, path: str) -> list[Diagnostic]:
    """Raw repo-lint findings for one file's source text."""
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
    norm_path = _norm(path)

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
        elif isinstance(node, ast.Call):
            name = rightmost_name(node.func)
            if name is None or name not in TRANSPORT_NAMES:
                continue
            allowed, why = TRANSPORT_NAMES[name]
            if not any(frag in norm_path for frag in allowed):
                out.append(
                    Diagnostic(
                        "LNT003",
                        rule_severity("LNT003"),
                        f"{name} constructed directly; {why}",
                        subject=path,
                        file=path,
                        line=node.lineno,
                        column=node.col_offset + 1,
                    )
                )
    return out


#: ``lint_source(source, path, *, ignore=())``,
#: ``lint_file(path, *, ignore=())``, ``lint_paths(paths, *, ignore=())``:
#: the findings above with suppressions applied
lint_source, lint_file, lint_paths = file_entry_points(lint_findings)
