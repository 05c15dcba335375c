"""Wire-format decode-safety verifier (WIRE002).

The repo's codecs are hand-rolled binary formats — event bodies
(:mod:`repro.core.events`), progressive-image packets
(:mod:`repro.media.progressive`), RTP datagrams
(:mod:`repro.messaging.rtp`), the semantic-message codec
(:mod:`repro.messaging.serialization`), and the BER subset
(:mod:`repro.snmp.ber`).  The fault injector delivers exactly the
truncated and bit-flipped bytes that crash naive decoders, so this pass
checks, per source file and without importing anything:

* **Codec-pair discovery** — ``to_bytes``/``from_bytes``,
  ``to_body``/``from_body``, ``encode``/``decode`` method pairs, and
  ``encode_X``/``decode_X`` and ``X_encode``/``X_decode`` module-function
  pairs.
* ``WIRE002`` — a decoder (or a reader helper it calls) performs a raw
  read — integer subscript, ``struct.unpack_from``, or a fixed-width
  ``int.from_bytes`` slice — with no ``len()`` bounds guard anywhere in
  the function: truncated input raises ``IndexError``/``struct.error``
  (or silently mis-decodes) instead of the codec's declared error.

Symmetry — that a decoder inverts its encoder — is checked at run time
by :mod:`repro.analysis.wirefuzz`: a differential fuzz harness deriving
round-trip, truncation, and bit-flip properties from an importing
registry of the codec pairs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from .diagnostics import Diagnostic, rule_severity
from .passes import file_entry_points

__all__ = [
    "CodecPair",
    "wire_findings",
    "wire_source",
    "wire_file",
    "wire_paths",
    "analyze_wireformat",
    "PAIR_METHOD_NAMES",
]

#: method-name pairs discovered on classes
PAIR_METHOD_NAMES: tuple[tuple[str, str], ...] = (
    ("to_bytes", "from_bytes"),
    ("to_body", "from_body"),
    ("encode", "decode"),
)


@dataclass(frozen=True)
class CodecPair:
    """One discovered encoder/decoder pair in a module."""

    encoder: str
    decoder: str
    enc_node: ast.FunctionDef
    dec_node: ast.FunctionDef
    cls: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.encoder}/{self.decoder}"


def _const_int(node: ast.expr) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    return None


def _slice_width(sl: ast.expr) -> Optional[int]:
    """Constant width of a bounded slice ``lower:upper`` (None if unknown).

    Handles constant bounds and the ``P[e : e + N]`` / ``P[e + A : e + B]``
    shapes where both bounds share the same base expression.
    """
    if not isinstance(sl, ast.Slice) or sl.lower is None or sl.upper is None:
        return None

    def split(e: ast.expr) -> Optional[tuple[str, int]]:
        c = _const_int(e)
        if c is not None:
            return ("", c)
        if isinstance(e, ast.Name):
            return (e.id, 0)
        if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Add):
            c = _const_int(e.right)
            if c is not None:
                base = split(e.left)
                if base is not None:
                    return (base[0], base[1] + c)
        return None

    lo, hi = split(sl.lower), split(sl.upper)
    if lo is None or hi is None or lo[0] != hi[0]:
        return None
    width = hi[1] - lo[1]
    return width if width > 0 else None


def _is_struct_unpack(call: ast.Call) -> bool:
    """``struct.unpack_from(...)`` / ``struct.unpack(...)`` / ``S.unpack_from(...)``."""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ("unpack_from", "unpack")
    )


def _test_guards_buffer(test: ast.expr, buffer_names: set[str]) -> bool:
    """Whether a condition inspects the buffer's length (or truthiness)."""
    for sub in ast.walk(test):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
            and len(sub.args) == 1
            and isinstance(sub.args[0], ast.Name)
            and sub.args[0].id in buffer_names
        ):
            return True
        if (
            isinstance(sub, ast.UnaryOp)
            and isinstance(sub.op, ast.Not)
            and isinstance(sub.operand, ast.Name)
            and sub.operand.id in buffer_names
        ):
            return True
    return False


def _has_len_guard(fn: ast.FunctionDef, buffer_names: set[str]) -> bool:
    """Whether ``fn`` bounds its reads against the buffer's length.

    Accepts ``if`` statements that compare ``len(buffer)`` and bail
    (raise/return), the truthiness idiom ``if not buffer: raise``, and
    ``while ... len(buffer)`` loop conditions (the condition itself
    bounds the body's reads).
    """
    for node in ast.walk(fn):
        if isinstance(node, ast.While) and _test_guards_buffer(node.test, buffer_names):
            return True
        if not isinstance(node, ast.If):
            continue
        bails = any(isinstance(s, (ast.Raise, ast.Return)) for s in node.body)
        if not bails:
            continue
        if _test_guards_buffer(node.test, buffer_names):
            return True
    return False


def _buffer_param(fn: ast.FunctionDef) -> Optional[str]:
    """The wire-buffer parameter: first one annotated ``bytes`` when any
    is (so fmt-forwarding readers like ``_unpack(fmt, body, pos)`` pick
    the buffer, not the format), else the first non-self parameter."""
    params = [a for a in fn.args.args if a.arg not in ("self", "cls")]
    if not params:
        return None
    for a in params:
        ann = a.annotation
        if isinstance(ann, ast.Name) and ann.id == "bytes":
            return a.arg
        if isinstance(ann, ast.Constant) and ann.value == "bytes":
            return a.arg
    return params[0].arg


# ----------------------------------------------------------------------
# pair discovery
# ----------------------------------------------------------------------
def _discover_pairs(tree: ast.Module) -> list[CodecPair]:
    """Every codec pair a module defines, by naming convention."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    pairs: list[CodecPair] = []
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    for _, cls in sorted(classes.items()):
        methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
        for enc_name, dec_name in PAIR_METHOD_NAMES:
            if enc_name in methods and dec_name in methods:
                pairs.append(
                    CodecPair(
                        encoder=f"{cls.name}.{enc_name}",
                        decoder=f"{cls.name}.{dec_name}",
                        enc_node=methods[enc_name],
                        dec_node=methods[dec_name],
                        cls=cls.name,
                    )
                )
    for name in sorted(functions):
        partner: Optional[str] = None
        if name.startswith("encode"):
            partner = "decode" + name[len("encode"):]
        elif name.endswith("_encode"):
            partner = name[: -len("_encode")] + "_decode"
        if partner and partner in functions:
            pairs.append(
                CodecPair(
                    encoder=name,
                    decoder=partner,
                    enc_node=functions[name],
                    dec_node=functions[partner],
                )
            )
    return pairs


# ----------------------------------------------------------------------
# WIRE002: decode-safety scan
# ----------------------------------------------------------------------
def _decode_safety(
    fn: ast.FunctionDef,
    buffer_names: set[str],
    subject: str,
    path: str,
) -> list[Diagnostic]:
    if not buffer_names:
        return []
    if _has_len_guard(fn, buffer_names):
        return []
    out: list[Diagnostic] = []

    def flag(node: ast.AST, what: str) -> None:
        out.append(
            Diagnostic(
                "WIRE002",
                rule_severity("WIRE002"),
                f"{what} with no len() bounds guard in {fn.name}():"
                " truncated input escapes the codec's declared error",
                subject=subject,
                file=path,
                line=getattr(node, "lineno", fn.lineno),
                column=getattr(node, "col_offset", 0) + 1,
            )
        )

    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in buffer_names
                and not isinstance(node.slice, ast.Slice)
            ):
                flag(node, f"unguarded index read {node.value.id}[...]")
        elif isinstance(node, ast.Call):
            if _is_struct_unpack(node) and any(
                isinstance(a, ast.Name) and a.id in buffer_names for a in node.args
            ):
                flag(node, "struct unpack past the end of the buffer")
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_bytes"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "int"
                and node.args
            ):
                arg = node.args[0]
                if (
                    isinstance(arg, ast.Subscript)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id in buffer_names
                    and isinstance(arg.slice, ast.Slice)
                    and _slice_width(arg.slice) is not None
                ):
                    flag(node, "fixed-width int.from_bytes slice that silently truncates")
    return out


def _decoder_buffer_names(fn: ast.FunctionDef) -> set[str]:
    buf = _buffer_param(fn)
    names = {buf} if buf is not None else set()
    # include slice aliases (body = data[4:])
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in names
            and isinstance(node.value.slice, ast.Slice)
            and node.value.slice.upper is None
        ):
            names.add(node.targets[0].id)
    return names


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def wire_findings(source: str, path: str) -> list[Diagnostic]:
    """Raw WIRE002 findings for one file's source text: every discovered
    decoder, and every module-level reader helper it hands the buffer."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []  # repo_lint already reports unparseable files
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    out: list[Diagnostic] = []
    scanned_readers: set[str] = set()
    for pair in _discover_pairs(tree):
        buffer_names = _decoder_buffer_names(pair.dec_node)
        out.extend(_decode_safety(pair.dec_node, buffer_names, f"{path}:{pair.label}", path))
        for node in ast.walk(pair.dec_node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                helper = functions.get(node.func.id)
                if helper is None or node.func.id in scanned_readers:
                    continue
                if not any(
                    isinstance(a, ast.Name) and a.id in buffer_names for a in node.args
                ):
                    continue
                scanned_readers.add(node.func.id)
                out.extend(
                    _decode_safety(
                        helper,
                        _decoder_buffer_names(helper),
                        f"{path}:{node.func.id}",
                        path,
                    )
                )
    out.sort(key=lambda d: (d.line or 0, d.code, d.message))
    return out


#: ``wire_source(source, path, *, ignore=())``, ``wire_file(path, *,
#: ignore=())``, ``wire_paths(paths, *, ignore=())``: the findings above
#: with suppressions applied; ``analyze_wireformat`` is the corpus gate's name
wire_source, wire_file, wire_paths = file_entry_points(wire_findings)
analyze_wireformat = wire_paths
