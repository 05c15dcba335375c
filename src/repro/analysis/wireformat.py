"""Wire-format symmetry & decode-safety verifier (WIRE rules).

The repo's codecs are hand-rolled binary formats — event bodies
(:mod:`repro.core.events`), progressive-image packets
(:mod:`repro.media.progressive`), RTP datagrams
(:mod:`repro.messaging.rtp`), the semantic-message codec
(:mod:`repro.messaging.serialization`), and the BER subset
(:mod:`repro.snmp.ber`).  The fault injector delivers exactly the
truncated and bit-flipped bytes that crash naive decoders, so this pass
verifies, per source file and without importing anything:

* **Codec-pair registry** — ``to_bytes``/``from_bytes``,
  ``to_body``/``from_body``, ``encode``/``decode`` method pairs,
  ``encode_X``/``decode_X`` and ``X_encode``/``X_decode`` module-function
  pairs, plus pairs declared explicitly in a module-level ``WIRE_PAIRS``
  tuple of ``("encoder_name", "decoder_name")`` entries.
* **Abstract byte-layout interpreter** — both sides of a pair are
  abstracted into a token stream over ``struct`` format strings,
  ``int.to_bytes``/``int.from_bytes`` width+endianness, slice offsets,
  length-prefixed string helpers (``_pack_str`` style), varint helpers,
  loops, and raw tails.  Interpretation stops at the first construct the
  abstraction cannot model (an ``opaque`` token), so every reported
  asymmetry is definite, never speculative.

Rules:

* ``WIRE001`` — the encoder and decoder token streams disagree on field
  order, width, or endianness before either goes opaque.
* ``WIRE002`` — a decoder (or a reader helper it calls) performs a raw
  read — integer subscript, ``struct.unpack_from``, or a fixed-width
  ``int.from_bytes`` slice — with no ``len()`` bounds guard anywhere in
  the function: truncated input raises ``IndexError``/``struct.error``
  (or silently mis-decodes) instead of the codec's declared error.
* ``WIRE003`` — a length-prefix field and the loop that produces or
  consumes it disagree (the encoder packs ``len(X)`` but loops over
  ``Y``, or the decoder reads count ``n`` but iterates ``range(m)``).
* ``WIRE004`` — a magic-prefix dispatch (``data[:k] == MAGIC``) shares a
  module with a codec whose leading field is a variable fixed-width
  value of width >= k, so a value collision would mis-dispatch.
* ``WIRE005`` — an encoder iterates an unordered container (``set``
  literal or call) into wire bytes, breaking byte-identical replay.

The runtime twin lives in :mod:`repro.analysis.wirefuzz`: a differential
fuzz harness deriving round-trip, truncation, and bit-flip properties
from an importing registry of the same codec pairs.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import Diagnostic, rule_severity
from .passes import file_entry_points, is_set_expr

__all__ = [
    "CodecPair",
    "Tok",
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

_INT_WIDTHS = {"b": 1, "B": 1, "h": 2, "H": 2, "i": 4, "I": 4, "l": 4, "L": 4, "q": 8, "Q": 8}
_FLOAT_WIDTHS = {"e": 2, "f": 4, "d": 8}
_ENDIAN_CHARS = "><!=@"

_OPAQUE = ("opaque",)


@dataclass
class Tok:
    """One abstract layout token.

    ``kind`` is the canonical comparison key: ``("int", width, endian)``,
    ``("float", width, endian)``, ``("bytes", n)`` (fixed/magic bytes),
    ``("varint",)``, ``("raw",)`` (length-prefixed or tail bytes),
    ``("array", elem_kind)``, ``("loop",)`` (with ``body``), or
    ``("opaque",)``.
    """

    kind: tuple
    line: int = 0
    #: encoder: the container whose len() this count field encodes
    count_src: Optional[str] = None
    #: loop/array: the expression driving the repeat count
    count_used: Optional[str] = None
    #: decoder: names assigned from this field
    names: tuple[str, ...] = ()
    body: tuple["Tok", ...] = ()

    def describe(self) -> str:
        k = self.kind
        if k[0] == "int":
            return f"u{int(k[1]) * 8}({'be' if k[2] == '>' else 'le' if k[2] == '<' else 'na'})"
        if k[0] == "float":
            return f"f{int(k[1]) * 8}({'be' if k[2] == '>' else 'le' if k[2] == '<' else 'na'})"
        if k[0] == "bytes":
            return f"bytes[{k[1]}]"
        if k[0] == "array":
            return f"array({Tok(kind=k[1]).describe()})"
        if k[0] == "loop":
            inner = ", ".join(t.describe() for t in self.body)
            return f"loop[{inner}]"
        return str(k[0])


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


def _struct_tokens(fmt: str, line: int) -> Optional[list[Tok]]:
    """Tokens for a constant ``struct`` format string (None = opaque)."""
    endian = "="
    i = 0
    if fmt[:1] in _ENDIAN_CHARS:
        endian = ">" if fmt[0] in ">!" else "<" if fmt[0] == "<" else "="
        i = 1
    out: list[Tok] = []
    digits = ""
    for ch in fmt[i:]:
        if ch.isdigit():
            digits += ch
            continue
        n = int(digits) if digits else 1
        digits = ""
        if n > 64:
            return None
        if ch in ("s", "x"):
            out.append(Tok(kind=("bytes", n), line=line))
            continue
        for _ in range(n):
            if ch in _INT_WIDTHS:
                w = _INT_WIDTHS[ch]
                out.append(Tok(kind=("int", w, "=" if w == 1 else endian), line=line))
            elif ch in _FLOAT_WIDTHS:
                out.append(Tok(kind=("float", _FLOAT_WIDTHS[ch], endian), line=line))
            elif ch == "?":
                out.append(Tok(kind=("int", 1, "="), line=line))
            elif ch == " ":
                continue
            else:
                return None
    return out


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _const_int(node: ast.expr) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    return None


def _dump(node: ast.expr) -> str:
    """Canonical text of an expression — used both for equality checks
    between encoder/decoder count expressions and, verbatim, in WIRE003
    messages (so it must stay human-readable)."""
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - malformed synthetic nodes
        return ast.dump(node)


def _len_target(node: ast.expr) -> Optional[str]:
    """``len(X)`` -> canonical dump of X, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
    ):
        return _dump(node.args[0])
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
            return (_dump(e), 0)
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


class _ModuleIndex:
    """Everything the interpreter needs to know about one parsed module."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.path = path
        self.bytes_consts: dict[str, bytes] = {}
        self.int_consts: dict[str, int] = {}
        self.struct_fmts: dict[str, str] = {}
        self.functions: dict[str, ast.FunctionDef] = {}
        self.classes: dict[str, dict[str, ast.FunctionDef]] = {}
        self.declared_pairs: list[tuple[str, str]] = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods = {
                    n.name: n for n in node.body if isinstance(n, ast.FunctionDef)
                }
                self.classes[node.name] = methods
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(value.value, bytes):
                    self.bytes_consts[target.id] = value.value
                elif isinstance(value, ast.Constant) and isinstance(value.value, int):
                    if not isinstance(value.value, bool):
                        self.int_consts[target.id] = value.value
                elif (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "Struct"
                    and value.args
                ):
                    fmt = _const_str(value.args[0])
                    if fmt is not None:
                        self.struct_fmts[target.id] = fmt
                elif target.id == "WIRE_PAIRS" and isinstance(value, (ast.Tuple, ast.List)):
                    for elt in value.elts:
                        if isinstance(elt, (ast.Tuple, ast.List)) and len(elt.elts) == 2:
                            enc = _const_str(elt.elts[0])
                            dec = _const_str(elt.elts[1])
                            if enc is not None and dec is not None:
                                self.declared_pairs.append((enc, dec))
        # memoized helper classifications
        self._writer_memo: dict[str, Optional[list[Tok]]] = {}
        self._reader_memo: dict[str, Optional[tuple[list[Tok], bool]]] = {}
        self._fmt_forward: dict[str, bool] = {}
        self._visiting: set[str] = set()
        #: (function-name, line, k) for every magic-prefix compare seen
        self.magic_compares: list[tuple[str, int, int]] = []

    # -- helper classification ----------------------------------------
    def magic_checker_width(self, name: str) -> Optional[tuple[int, int]]:
        """(width k, line) when ``name`` is a ``return data[:k] == MAGIC`` helper."""
        fn = self.functions.get(name)
        if fn is None or not fn.args.args:
            return None
        body = [s for s in fn.body if not _is_docstring(s)]
        if len(body) != 1 or not isinstance(body[0], ast.Return) or body[0].value is None:
            return None
        k = _magic_compare_width(body[0].value, {fn.args.args[0].arg})
        return None if k is None else (k, body[0].lineno)

    def writer_tokens(self, name: str) -> Optional[list[Tok]]:
        """Token stream a writer helper emits (None = not a writer)."""
        if name in self._writer_memo:
            return self._writer_memo[name]
        fn = self.functions.get(name)
        if fn is None or name in self._visiting:
            return None
        if "varint" in name:
            toks = [Tok(kind=("varint",), line=fn.lineno)]
            self._writer_memo[name] = toks
            return toks
        self._visiting.add(name)
        try:
            interp = _Interpreter(self, fn, cls=None)
            # writer helpers mutate their first (bytearray) parameter
            toks = interp.encode_stream(acc_param=True)
        finally:
            self._visiting.discard(name)
        self._writer_memo[name] = toks
        return toks

    def reader_info(self, name: str) -> Optional[tuple[list[Tok], bool]]:
        """(tokens, bounds-checked?) for a reader helper (None = unknown)."""
        if name in self._reader_memo:
            return self._reader_memo[name]
        fn = self.functions.get(name)
        if fn is None or not fn.args.args or name in self._visiting:
            return None
        if "varint" in name:
            buf = _buffer_param(fn)
            guarded = buf is not None and _has_len_guard(fn, {buf})
            info = ([Tok(kind=("varint",), line=fn.lineno)], guarded)
            self._reader_memo[name] = info
            return info
        self._visiting.add(name)
        try:
            interp = _Interpreter(self, fn, cls=None)
            toks = interp.decode_stream()
            checked = _has_len_guard(fn, interp.buffer_names)
        finally:
            self._visiting.discard(name)
        info = (toks, checked)
        self._reader_memo[name] = info
        return info

    def fmt_forward_reader(self, name: str) -> bool:
        """Whether helper ``name`` forwards its first arg as a struct fmt
        (``def _unpack(fmt, body, pos): ... return struct.unpack_from(fmt, body, pos)``)."""
        if name in self._fmt_forward:
            return self._fmt_forward[name]
        fn = self.functions.get(name)
        result = False
        if fn is not None and fn.args.args:
            fmt_param = fn.args.args[0].arg
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Call)
                    and _unpack_from_fmt(node.value) is None
                    and _is_struct_unpack(node.value)
                    and node.value.args
                    and isinstance(node.value.args[0], ast.Name)
                    and node.value.args[0].id == fmt_param
                ):
                    result = True
                    break
        self._fmt_forward[name] = result
        return result


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _magic_compare_width(expr: ast.expr, buffer_names: set[str]) -> Optional[int]:
    """Width k of a ``P[:k] ==/!= CONST`` compare inside ``expr``."""
    for node in ast.walk(expr):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            continue
        sub = node.left
        if (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in buffer_names
            and isinstance(sub.slice, ast.Slice)
            and sub.slice.lower is None
            and sub.slice.upper is not None
        ):
            k = _const_int(sub.slice.upper)
            if k is not None:
                return k
    return None


def _byte_compare(expr: ast.expr, buffer_names: set[str]) -> Optional[int]:
    """Line-local ``P[i] ==/!= CONST`` compare -> 1 (one byte token)."""
    for node in ast.walk(expr):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            continue
        sub = node.left
        if (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in buffer_names
            and not isinstance(sub.slice, ast.Slice)
        ):
            return 1
    return None


def _is_struct_unpack(call: ast.Call) -> bool:
    """``struct.unpack_from(...)`` / ``struct.unpack(...)`` / ``S.unpack_from(...)``."""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ("unpack_from", "unpack")
    )


def _unpack_from_fmt(call: ast.Call) -> Optional[str]:
    """Constant fmt string of a struct unpack call, if resolvable here."""
    if not _is_struct_unpack(call):
        return None
    assert isinstance(call.func, ast.Attribute)
    if isinstance(call.func.value, ast.Name) and call.func.value.id == "struct" and call.args:
        return _const_str(call.args[0])
    return None


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


@dataclass
class _CountLink:
    """A WIRE003 candidate: a count field followed by the loop using it."""

    line: int
    declared: str
    used: str
    side: str  # "encoder" | "decoder"


class _Interpreter:
    """Abstract layout interpretation of one encoder or decoder function."""

    def __init__(self, index: _ModuleIndex, fn: ast.FunctionDef, cls: Optional[str]) -> None:
        self.index = index
        self.fn = fn
        self.cls = cls
        buf = _buffer_param(fn)
        #: the wire buffer parameter and its slice aliases (decoder side)
        self.buffer_names: set[str] = {buf} if buf is not None else set()
        self.count_links: list[_CountLink] = []
        self.set_iterations: list[int] = []  # WIRE005 lines
        self._local_sets: set[str] = set()

    # ------------------------------------------------------------------
    # encoder side
    # ------------------------------------------------------------------
    def encode_stream(self, acc_param: bool = False) -> list[Tok]:
        params = [a.arg for a in self.fn.args.args if a.arg not in ("self", "cls")]
        acc: Optional[str] = params[0] if acc_param and params else None
        acc_is_list = False
        toks: list[Tok] = []
        bytes_locals: set[str] = set()

        def terms(expr: ast.expr) -> Optional[list[Tok]]:
            line = getattr(expr, "lineno", self.fn.lineno)
            if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
                left, right = terms(expr.left), terms(expr.right)
                if left is None or right is None:
                    return None
                return left + right
            if isinstance(expr, ast.Constant) and isinstance(expr.value, bytes):
                return [] if not expr.value else [Tok(kind=("bytes", len(expr.value)), line=line)]
            if isinstance(expr, ast.IfExp):
                alt = expr.orelse
                empty_alt = (
                    isinstance(alt, ast.Constant) and alt.value in (b"", ())
                ) or (isinstance(alt, ast.Tuple) and not alt.elts)
                return terms(expr.body) if empty_alt else None
            if isinstance(expr, ast.Call):
                return call_terms(expr, line)
            if isinstance(expr, ast.Name):
                if expr.id in self.index.bytes_consts:
                    n = len(self.index.bytes_consts[expr.id])
                    return [] if n == 0 else [Tok(kind=("bytes", n), line=line)]
                return [Tok(kind=("raw",), line=line)]
            if isinstance(expr, ast.Attribute):
                return [Tok(kind=("raw",), line=line)]
            return None

        def call_terms(call: ast.Call, line: int) -> Optional[list[Tok]]:
            func = call.func
            # struct.pack(fmt, *args) / STRUCT_CONST.pack(*args)
            if isinstance(func, ast.Attribute) and func.attr == "pack":
                fmt: Optional[str] = None
                args = call.args
                if isinstance(func.value, ast.Name) and func.value.id == "struct" and args:
                    fmt_node = args[0]
                    args = args[1:]
                    fmt = _const_str(fmt_node)
                    if fmt is None and isinstance(fmt_node, ast.JoinedStr):
                        return fstring_tokens(fmt_node, line)
                elif isinstance(func.value, ast.Name) and func.value.id in self.index.struct_fmts:
                    fmt = self.index.struct_fmts[func.value.id]
                if fmt is None:
                    return None
                out = _struct_tokens(fmt, line)
                if out is None:
                    return None
                if len(out) == len(args):
                    for tok, arg in zip(out, args):
                        target = _len_target(arg)
                        if target is not None:
                            tok.count_src = target
                return out
            # value.to_bytes(N, endian)
            if isinstance(func, ast.Attribute) and func.attr == "to_bytes" and len(call.args) >= 2:
                width = _const_int(call.args[0])
                endian_s = _const_str(call.args[1])
                if width is not None and endian_s in ("big", "little"):
                    endian = ">" if endian_s == "big" else "<"
                    tok = Tok(kind=("int", width, "=" if width == 1 else endian), line=line)
                    target = _len_target(func.value)
                    if target is not None:
                        tok.count_src = target
                    return [tok]
                return None
            # writer helper returning bytes
            if isinstance(func, ast.Name):
                if func.id == "bytes" and len(call.args) == 1:
                    inner = call.args[0]
                    if isinstance(inner, ast.List) and len(inner.elts) == 1:
                        return [Tok(kind=("int", 1, "="), line=line)]
                    return terms(inner)
                helper = self.index.writer_tokens(func.id)
                if helper is not None:
                    return [Tok(kind=t.kind, line=line, count_src=t.count_src, body=t.body) for t in helper]
            return None

        def fstring_tokens(fmt_node: ast.JoinedStr, line: int) -> Optional[list[Tok]]:
            # f">{n}d" — endian prefix, one formatted count, one element char
            parts = fmt_node.values
            if len(parts) != 3:
                return None
            head = parts[0]
            count = parts[1]
            tail = parts[2]
            if not (isinstance(head, ast.Constant) and isinstance(count, ast.FormattedValue)):
                return None
            if not (isinstance(tail, ast.Constant) and isinstance(tail.value, str) and len(tail.value) == 1):
                return None
            probe = _struct_tokens(str(head.value) + tail.value, line)
            if probe is None or len(probe) != 1:
                return None
            used = _len_target(count.value) or _dump(count.value)
            return [Tok(kind=("array", probe[0].kind), line=line, count_used=used)]

        def handle_stmts(stmts: list[ast.stmt], toks_out: list[Tok]) -> bool:
            """Interpret statements; returns False on opaque-stop."""
            nonlocal acc, acc_is_list
            for stmt in stmts:
                if _is_docstring(stmt) or isinstance(stmt, (ast.Pass, ast.Assert)):
                    continue
                if isinstance(stmt, ast.Raise):
                    return True
                if isinstance(stmt, ast.If):
                    if all(isinstance(s, ast.Raise) for s in stmt.body) and not stmt.orelse:
                        continue  # validation guard
                    toks_out.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                    return False
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
                    stmt.targets[0], ast.Name
                ):
                    name = stmt.targets[0].id
                    value = stmt.value
                    if (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Attribute)
                        and value.func.attr == "encode"
                    ):
                        bytes_locals.add(name)
                        continue
                    if acc is None:
                        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "bytearray":
                            acc = name
                            if value.args:
                                init = terms(value.args[0])
                                if init is None:
                                    toks_out.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                                    return False
                                toks_out.extend(init)
                            continue
                        if isinstance(value, (ast.List, ast.Tuple)):
                            acc = name
                            acc_is_list = True
                            for elt in value.elts:
                                t = terms(elt)
                                if t is None:
                                    toks_out.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                                    return False
                                toks_out.extend(t)
                            continue
                        maybe = terms(value)
                        if maybe is not None:
                            acc = name
                            toks_out.extend(maybe)
                            continue
                    # plain local that doesn't feed the accumulator: skip
                    continue
                if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id == acc and isinstance(stmt.op, ast.Add):
                        t = terms(stmt.value)
                        if t is None:
                            toks_out.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                            return False
                        toks_out.extend(t)
                        continue
                    continue
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                    call = stmt.value
                    func = call.func
                    if (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == acc
                        and func.attr in ("append", "extend")
                        and len(call.args) == 1
                    ):
                        arg = call.args[0]
                        if func.attr == "append" and not acc_is_list:
                            toks_out.append(Tok(kind=("int", 1, "="), line=stmt.lineno))
                            continue
                        t = terms(arg)
                        if t is None:
                            toks_out.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                            return False
                        toks_out.extend(t)
                        continue
                    if (
                        isinstance(func, ast.Name)
                        and call.args
                        and isinstance(call.args[0], ast.Name)
                        and call.args[0].id == acc
                    ):
                        helper = self.index.writer_tokens(func.id)
                        if helper is None:
                            toks_out.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                            return False
                        toks_out.extend(
                            Tok(kind=t.kind, line=stmt.lineno, count_src=t.count_src, body=t.body)
                            for t in helper
                        )
                        continue
                    continue
                if isinstance(stmt, ast.For):
                    if is_set_expr(stmt.iter, self._local_sets):
                        self.set_iterations.append(stmt.lineno)
                    body_toks: list[Tok] = []
                    ok = handle_stmts(stmt.body, body_toks)
                    if body_toks or not ok:
                        used = _len_target(stmt.iter) or _dump(stmt.iter)
                        toks_out.append(
                            Tok(kind=("loop",), line=stmt.lineno, count_used=used, body=tuple(body_toks))
                        )
                    if not ok and any(t.kind == _OPAQUE for t in body_toks):
                        pass  # loop body opaque: comparison will stop inside it
                    continue
                if isinstance(stmt, ast.Return):
                    value = stmt.value
                    if value is None:
                        return True
                    if isinstance(value, ast.Name) and value.id == acc:
                        return True
                    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "bytes":
                        if value.args and isinstance(value.args[0], ast.Name) and value.args[0].id == acc:
                            return True
                    if (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Attribute)
                        and value.func.attr == "join"
                        and value.args
                        and isinstance(value.args[0], ast.Name)
                        and value.args[0].id == acc
                    ):
                        return True
                    t = terms(value)
                    if t is None:
                        toks_out.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                        return False
                    toks_out.extend(t)
                    return True
                # any other statement shape: record set locals, else opaque
                if isinstance(stmt, ast.AnnAssign):
                    continue
                toks_out.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                return False
            return True

        # track locals assigned from set constructors for WIRE005
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                if is_set_expr(node.value, set()):
                    self._local_sets.add(node.targets[0].id)

        handle_stmts([s for s in self.fn.body if not _is_docstring(s)], toks)
        self._record_count_links(toks, side="encoder")
        return toks

    # ------------------------------------------------------------------
    # decoder side
    # ------------------------------------------------------------------
    def decode_stream(self) -> list[Tok]:
        toks: list[Tok] = []
        self._decode_stmts([s for s in self.fn.body if not _is_docstring(s)], toks)
        self._record_count_links(toks, side="decoder")
        return toks

    def _decode_stmts(self, stmts: list[ast.stmt], toks: list[Tok]) -> bool:
        P = self.buffer_names
        for stmt in stmts:
            if _is_docstring(stmt) or isinstance(stmt, (ast.Pass, ast.Assert, ast.Raise)):
                if isinstance(stmt, ast.Raise):
                    return True
                continue
            if isinstance(stmt, ast.If):
                if all(isinstance(s, ast.Raise) for s in stmt.body) and not stmt.orelse:
                    # a validation guard may *consume* magic / version bytes
                    k = _magic_compare_width(stmt.test, P)
                    if k is not None:
                        toks.append(Tok(kind=("bytes", k), line=stmt.lineno))
                        self.index.magic_compares.append((self._qualname(), stmt.lineno, k))
                    else:
                        checker = self._magic_checker_call(stmt.test)
                        if checker is not None:
                            toks.append(Tok(kind=("bytes", checker), line=stmt.lineno))
                    if _byte_compare(stmt.test, P) is not None:
                        toks.append(Tok(kind=("int", 1, "="), line=stmt.lineno))
                    continue
                toks.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                return False
            if isinstance(stmt, ast.Try):
                handlers_bail = all(
                    all(isinstance(s, ast.Raise) for s in h.body) for h in stmt.handlers
                )
                if handlers_bail:
                    if not self._decode_stmts(stmt.body, toks):
                        return False
                    continue
                toks.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                return False
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                if self._decode_assign(stmt, toks) is False:
                    return False
                continue
            if isinstance(stmt, ast.AugAssign):
                if self._touches_buffer_reads(stmt):
                    toks.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                    return False
                continue
            if isinstance(stmt, ast.For):
                count_used: Optional[str] = None
                it = stmt.iter
                if (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id == "range"
                    and len(it.args) == 1
                ):
                    count_used = _dump(it.args[0])
                body_toks: list[Tok] = []
                ok = self._decode_stmts(stmt.body, body_toks)
                if isinstance(it, (ast.Name, ast.Subscript)) and self._is_buffer_expr(it):
                    body_toks = [Tok(kind=("int", 1, "="), line=stmt.lineno)]
                    ok = True
                if body_toks:
                    toks.append(
                        Tok(kind=("loop",), line=stmt.lineno, count_used=count_used, body=tuple(body_toks))
                    )
                elif not ok:
                    toks.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                    return False
                continue
            if isinstance(stmt, ast.While):
                if any(self._touches_buffer(n) for n in ast.walk(stmt)):
                    toks.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                    return False
                continue
            if isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    self._fallback_reads(stmt.value, toks)
                return True
            if isinstance(stmt, ast.Expr):
                if self._fallback_reads(stmt.value, toks) is False:
                    return False
                continue
            if isinstance(stmt, ast.AnnAssign):
                continue
            if self._touches_buffer(stmt):
                toks.append(Tok(kind=_OPAQUE, line=stmt.lineno))
                return False
        return True

    def _decode_assign(self, stmt: ast.Assign, toks: list[Tok]) -> bool:
        """Interpret one assignment; False = opaque-stop."""
        target = stmt.targets[0]
        value = stmt.value
        names = _target_names(target)
        line = stmt.lineno
        # alias: body = data[4:]
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Subscript)
            and self._is_buffer_expr(value.value)
            and isinstance(value.slice, ast.Slice)
            and value.slice.upper is None
            and (value.slice.lower is None or _const_int(value.slice.lower) is not None)
        ):
            self.buffer_names.add(target.id)
            return True
        produced = self._reader_value_tokens(value, line)
        if produced is None:
            return self._fallback_reads(stmt.value, toks)
        if produced and len(names) == len(produced):
            for tok, name in zip(produced, names):
                tok.names = (name,)
        elif produced:
            produced[-1].names = tuple(names)
        toks.extend(produced)
        return True

    def _reader_value_tokens(self, value: ast.expr, line: int) -> Optional[list[Tok]]:
        """Tokens produced by a recognized read expression (None = not one)."""
        if isinstance(value, ast.IfExp):
            alt = value.orelse
            empty_alt = (isinstance(alt, ast.Constant) and alt.value in (b"", (), 0, None)) or (
                isinstance(alt, ast.Tuple) and not alt.elts
            )
            if empty_alt:
                return self._reader_value_tokens(value.body, line)
            return None
        if isinstance(value, ast.Call):
            func = value.func
            # tuple(... for _ in range(n)) / list(...)
            if (
                isinstance(func, ast.Name)
                and func.id in ("tuple", "list")
                and len(value.args) == 1
                and isinstance(value.args[0], ast.GeneratorExp)
            ):
                gen = value.args[0]
                elt_toks = self._reader_value_tokens(gen.elt, line)
                if elt_toks is None:
                    elt_toks = []
                    if self._fallback_reads(gen.elt, elt_toks) is False:
                        elt_toks = [Tok(kind=_OPAQUE, line=line)]
                if not elt_toks:
                    # a per-iteration consumption we cannot model
                    elt_toks = [Tok(kind=_OPAQUE, line=line)]
                count_used = None
                if gen.generators:
                    it = gen.generators[0].iter
                    if (
                        isinstance(it, ast.Call)
                        and isinstance(it.func, ast.Name)
                        and it.func.id == "range"
                        and len(it.args) == 1
                    ):
                        count_used = _dump(it.args[0])
                return [Tok(kind=("loop",), line=line, count_used=count_used, body=tuple(elt_toks))]
            # subscripted unpack result: fn(...)[0]
            # struct.unpack_from(fmt, P, pos) and friends
            if _is_struct_unpack(value):
                assert isinstance(func, ast.Attribute)
                fmt = _unpack_from_fmt(value)
                if fmt is not None:
                    return _struct_tokens(fmt, line)
                if isinstance(func.value, ast.Name) and func.value.id in self.index.struct_fmts:
                    return _struct_tokens(self.index.struct_fmts[func.value.id], line)
                if isinstance(func.value, ast.Name) and func.value.id == "struct" and value.args:
                    fmt_node = value.args[0]
                    if isinstance(fmt_node, ast.JoinedStr):
                        return self._fstring_read_tokens(fmt_node, line)
                return [Tok(kind=_OPAQUE, line=line)]
            # int.from_bytes(P[slice], endian)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "from_bytes"
                and isinstance(func.value, ast.Name)
                and func.value.id == "int"
                and value.args
            ):
                arg = value.args[0]
                endian_s = _const_str(value.args[1]) if len(value.args) > 1 else None
                endian = ">" if endian_s == "big" else "<" if endian_s == "little" else "="
                if isinstance(arg, ast.Subscript) and self._is_buffer_expr(arg.value):
                    width = _slice_width(arg.slice)
                    if width is not None:
                        return [Tok(kind=("int", width, "=" if width == 1 else endian), line=line)]
                    return [Tok(kind=("raw",), line=line)]
                if isinstance(arg, ast.Name) and arg.id in self.buffer_names:
                    return [Tok(kind=("raw",), line=line)]
                return None
            # reader helper call: x, pos = _unpack_str(body, pos)
            if isinstance(func, ast.Name):
                if self.index.fmt_forward_reader(func.id) and value.args:
                    fmt = _const_str(value.args[0])
                    if fmt is not None:
                        return _struct_tokens(fmt, line)
                    if isinstance(value.args[0], ast.JoinedStr):
                        return self._fstring_read_tokens(value.args[0], line)
                    return [Tok(kind=_OPAQUE, line=line)]
                info = self.index.reader_info(func.id)
                if info is not None and any(
                    isinstance(a, ast.Name) and a.id in self.buffer_names for a in value.args
                ):
                    return [
                        Tok(kind=t.kind, line=line, count_used=t.count_used, body=t.body)
                        for t in info[0]
                    ]
            return None
        # x = P[i]  (single byte)
        if (
            isinstance(value, ast.Subscript)
            and self._is_buffer_expr(value.value)
            and not isinstance(value.slice, ast.Slice)
        ):
            return [Tok(kind=("int", 1, "="), line=line)]
        # STRUCT.unpack_from(P, off)[0]: the subscript selects one field
        # of the unpacked tuple; the bytes consumed are the full format
        if (
            isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Call)
            and not isinstance(value.slice, ast.Slice)
        ):
            return self._reader_value_tokens(value.value, line)
        return None

    def _fstring_read_tokens(self, fmt_node: ast.JoinedStr, line: int) -> Optional[list[Tok]]:
        parts = fmt_node.values
        if len(parts) != 3:
            return [Tok(kind=_OPAQUE, line=line)]
        head, count, tail = parts
        if not (
            isinstance(head, ast.Constant)
            and isinstance(count, ast.FormattedValue)
            and isinstance(tail, ast.Constant)
            and isinstance(tail.value, str)
            and len(tail.value) == 1
        ):
            return [Tok(kind=_OPAQUE, line=line)]
        probe = _struct_tokens(str(head.value) + tail.value, line)
        if probe is None or len(probe) != 1:
            return [Tok(kind=_OPAQUE, line=line)]
        used = _len_target(count.value) or _dump(count.value)
        return [Tok(kind=("array", probe[0].kind), line=line, count_used=used)]

    def _magic_checker_call(self, test: ast.expr) -> Optional[int]:
        """``if not is_magic(data): raise`` -> the checker's magic width."""
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in self.buffer_names
            ):
                info = self.index.magic_checker_width(node.func.id)
                if info is not None:
                    k, checker_line = info
                    self.index.magic_compares.append((node.func.id, checker_line, k))
                    return k
        return None

    def _is_buffer_expr(self, expr: ast.expr) -> bool:
        return isinstance(expr, ast.Name) and expr.id in self.buffer_names

    def _touches_buffer(self, node: ast.AST) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id in self.buffer_names for n in ast.walk(node)
        )

    def _touches_buffer_reads(self, node: ast.AST) -> bool:
        """Whether any subexpression subscripts or unpacks the buffer."""
        for n in ast.walk(node):
            if isinstance(n, ast.Subscript) and self._is_buffer_expr(n.value):
                return True
            if isinstance(n, ast.Call) and _is_struct_unpack(n):
                if any(self._is_buffer_expr(a) for a in n.args):
                    return True
        return False

    def _fallback_reads(self, expr: ast.expr, toks: list[Tok]) -> bool:
        """Unrecognized expression: slices of the buffer become raw tokens;
        integer indexing or opaque consumption stops interpretation."""
        for n in ast.walk(expr):
            if isinstance(n, ast.Subscript) and self._is_buffer_expr(n.value):
                if isinstance(n.slice, ast.Slice):
                    toks.append(Tok(kind=("raw",), line=getattr(n, "lineno", 0)))
                else:
                    toks.append(Tok(kind=_OPAQUE, line=getattr(n, "lineno", 0)))
                    return False
            elif isinstance(n, ast.Call):
                # bare buffer handed to an unknown callable consumes unknown bytes
                func_name = n.func.id if isinstance(n.func, ast.Name) else None
                if func_name == "len":
                    continue
                if any(self._is_buffer_expr(a) for a in n.args) and func_name is not None:
                    if self.index.reader_info(func_name) is None and self.index.magic_checker_width(func_name) is None:
                        toks.append(Tok(kind=_OPAQUE, line=n.lineno))
                        return False
        return True

    def _qualname(self) -> str:
        return f"{self.cls}.{self.fn.name}" if self.cls else self.fn.name

    # ------------------------------------------------------------------
    def _record_count_links(self, toks: list[Tok], side: str) -> None:
        """Adjacent (count field, loop/array) pairs for WIRE003."""
        for i, tok in enumerate(toks):
            if tok.kind[0] not in ("loop", "array") or tok.count_used is None:
                continue
            # nearest preceding int token carrying count provenance
            for prev in reversed(toks[:i]):
                if prev.kind[0] != "int":
                    continue
                declared: Optional[str] = None
                if side == "encoder" and prev.count_src is not None:
                    declared = prev.count_src
                elif side == "decoder" and prev.names:
                    declared = None
                    used = tok.count_used
                    # decoder: the loop count must be (derived from) a name
                    # this wire field assigned
                    name_dumps = {_dump(ast.Name(id=n, ctx=ast.Load())) for n in prev.names}
                    if used in name_dumps:
                        return  # consistent
                    if any(n in used for n in prev.names):
                        return  # count participates in the expression: accept
                    self.count_links.append(
                        _CountLink(line=tok.line, declared=", ".join(prev.names), used=used, side=side)
                    )
                    return
                if declared is not None:
                    used = tok.count_used
                    if declared != used:
                        self.count_links.append(
                            _CountLink(line=tok.line, declared=declared, used=used, side=side)
                        )
                    return
                break


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


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [e.id for e in target.elts if isinstance(e, ast.Name)]
    return []


# ----------------------------------------------------------------------
# token-stream comparison (WIRE001)
# ----------------------------------------------------------------------
def _kinds_equal(a: Tok, b: Tok) -> bool:
    if a.kind == b.kind:
        return True
    # a loop whose body is a single field matches an array of that field
    if a.kind[0] == "array" and b.kind[0] == "loop" and len(b.body) == 1:
        return a.kind[1] == b.body[0].kind
    if b.kind[0] == "array" and a.kind[0] == "loop" and len(a.body) == 1:
        return b.kind[1] == a.body[0].kind
    return False


def _compare_streams(enc: list[Tok], dec: list[Tok]) -> Optional[tuple[int, Tok, Tok]]:
    """First definite mismatch position, or None (match / undecidable)."""
    i = 0
    while True:
        a = enc[i] if i < len(enc) else None
        b = dec[i] if i < len(dec) else None
        if a is None and b is None:
            return None
        if (a is not None and a.kind == _OPAQUE) or (b is not None and b.kind == _OPAQUE):
            return None
        if a is None or b is None:
            # one stream ended cleanly while the other still expects fields;
            # a lone trailing raw-tail vs nothing is undecidable (empty tail)
            longer = a or b
            assert longer is not None
            if longer.kind in (("raw",),):
                return None
            return (i, a or Tok(kind=("end",)), b or Tok(kind=("end",)))
        if not _kinds_equal(a, b):
            return (i, a, b)
        if a.kind[0] == "loop" and b.kind[0] == "loop":
            inner = _compare_streams(list(a.body), list(b.body))
            if inner is not None:
                return (i, a.body[inner[0]] if inner[0] < len(a.body) else a, b)
            if any(t.kind == _OPAQUE for t in a.body) or any(t.kind == _OPAQUE for t in b.body):
                return None  # cannot realign after an opaque loop body
        i += 1


# ----------------------------------------------------------------------
# pair discovery
# ----------------------------------------------------------------------
def _discover_pairs(index: _ModuleIndex) -> list[CodecPair]:
    pairs: list[CodecPair] = []
    for cls_name, methods in sorted(index.classes.items()):
        for enc_name, dec_name in PAIR_METHOD_NAMES:
            if enc_name in methods and dec_name in methods:
                pairs.append(
                    CodecPair(
                        encoder=f"{cls_name}.{enc_name}",
                        decoder=f"{cls_name}.{dec_name}",
                        enc_node=methods[enc_name],
                        dec_node=methods[dec_name],
                        cls=cls_name,
                    )
                )
    for name in sorted(index.functions):
        partner: Optional[str] = None
        if name.startswith("encode"):
            partner = "decode" + name[len("encode"):]
        elif name.endswith("_encode"):
            partner = name[: -len("_encode")] + "_decode"
        if partner and partner in index.functions:
            pairs.append(
                CodecPair(
                    encoder=name,
                    decoder=partner,
                    enc_node=index.functions[name],
                    dec_node=index.functions[partner],
                )
            )
    seen = {(p.encoder, p.decoder) for p in pairs}
    for enc_name, dec_name in index.declared_pairs:
        if (enc_name, dec_name) in seen:
            continue
        enc = _resolve_name(index, enc_name)
        dec = _resolve_name(index, dec_name)
        if enc is not None and dec is not None:
            cls = enc_name.split(".")[0] if "." in enc_name else None
            pairs.append(CodecPair(encoder=enc_name, decoder=dec_name, enc_node=enc, dec_node=dec, cls=cls))
    return pairs


def _resolve_name(index: _ModuleIndex, name: str) -> Optional[ast.FunctionDef]:
    if "." in name:
        cls, meth = name.split(".", 1)
        return index.classes.get(cls, {}).get(meth)
    return index.functions.get(name)


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
    """Raw WIRE findings for one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []  # repo_lint already reports unparseable files
    index = _ModuleIndex(tree, path)
    pairs = _discover_pairs(index)
    out: list[Diagnostic] = []
    enc_streams: dict[str, list[Tok]] = {}
    scanned_readers: set[str] = set()

    for pair in pairs:
        enc_interp = _Interpreter(index, pair.enc_node, cls=pair.cls)
        enc_toks = enc_interp.encode_stream()
        enc_streams[pair.encoder] = enc_toks
        dec_interp = _Interpreter(index, pair.dec_node, cls=pair.cls)
        dec_toks = dec_interp.decode_stream()
        subject = f"{path}:{pair.label}"

        mismatch = _compare_streams(enc_toks, dec_toks)
        if mismatch is not None:
            pos, etok, dtok = mismatch
            out.append(
                Diagnostic(
                    "WIRE001",
                    rule_severity("WIRE001"),
                    f"field {pos} asymmetry: encoder {pair.encoder} writes"
                    f" {etok.describe()} but decoder {pair.decoder} reads {dtok.describe()}",
                    subject=subject,
                    file=path,
                    line=dtok.line or pair.dec_node.lineno,
                )
            )

        for link in enc_interp.count_links + dec_interp.count_links:
            out.append(
                Diagnostic(
                    "WIRE003",
                    rule_severity("WIRE003"),
                    f"{link.side} length prefix declares {link.declared!r} but the"
                    f" adjacent repetition consumes {link.used!r}",
                    subject=subject,
                    file=path,
                    line=link.line,
                )
            )

        for lineno in enc_interp.set_iterations:
            out.append(
                Diagnostic(
                    "WIRE005",
                    rule_severity("WIRE005"),
                    f"{pair.encoder} iterates an unordered container into wire"
                    " bytes; sort before iterating or replay diverges",
                    subject=subject,
                    file=path,
                    line=lineno,
                )
            )

        # decode safety for the decoder and every reader helper it calls
        buffer_names = _decoder_buffer_names(pair.dec_node)
        out.extend(_decode_safety(pair.dec_node, buffer_names, subject, path))
        for node in ast.walk(pair.dec_node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                helper = index.functions.get(node.func.id)
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

    # WIRE004: magic dispatch vs variable leading fields, per module
    reported: set[int] = set()
    for func_name, lineno, k in index.magic_compares:
        if lineno in reported:
            continue
        for pair in pairs:
            if func_name in (pair.decoder, pair.decoder.split(".")[-1]):
                continue
            first = next(
                (t for t in enc_streams.get(pair.encoder, ()) if t.kind != _OPAQUE), None
            )
            if first is None or first.kind[0] not in ("int", "float"):
                continue
            if int(first.kind[1]) >= k:
                out.append(
                    Diagnostic(
                        "WIRE004",
                        rule_severity("WIRE004"),
                        f"{k}-byte magic dispatch in {func_name}() can collide with"
                        f" the leading {Tok(kind=first.kind).describe()} field of"
                        f" {pair.encoder}: a value collision mis-dispatches",
                        subject=f"{path}:{func_name}",
                        file=path,
                        line=lineno,
                    )
                )
                reported.add(lineno)
                break

    out.sort(key=lambda d: (d.line or 0, d.code, d.message))
    return out


#: ``wire_source(source, path, *, ignore=())``, ``wire_file(path, *,
#: ignore=())``, ``wire_paths(paths, *, ignore=())``: the findings above
#: with suppressions applied; ``analyze_wireformat`` is the corpus gate's name
wire_source, wire_file, wire_paths = file_entry_points(wire_findings)
analyze_wireformat = wire_paths
