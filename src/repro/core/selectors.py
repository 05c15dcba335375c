"""The semantic-selector expression language.

"The semantic-selector is a prepositional expression over all possible
attributes and specifies the profile(s) of clients that are to receive
the message" (paper Sec. 3).  Selectors *descriptively name dynamic sets
of clients of arbitrary cardinality* — this module is that naming
language.

Grammar (recursive descent, no ``eval``)::

    expr        := or_expr
    or_expr     := and_expr ( 'or' and_expr )*
    and_expr    := not_expr ( 'and' not_expr )*
    not_expr    := 'not' not_expr | primary
    primary     := 'exists' '(' IDENT ')'
                 | '(' expr ')'
                 | comparison
    comparison  := operand  ( ('=='|'!='|'<='|'>='|'<'|'>') operand
                            | 'in' list_lit
                            | 'contains' operand )?
    operand     := IDENT | literal
    literal     := NUMBER | STRING | 'true' | 'false'
    list_lit    := '[' literal ( ',' literal )* ']'

Semantics: identifiers read attributes from the environment (a profile or
a header map); any comparison touching a missing attribute is *false*
(``exists`` is the explicit presence test); a bare identifier used as a
boolean must be a bool attribute.  ``contains`` tests list membership
(``capabilities contains 'jpeg'``); ``in`` tests the reverse
(``encoding in ['mpeg2', 'jpeg']``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional, Union

from .attributes import MISSING, AttributeMap, values_equal

__all__ = [
    "Selector",
    "SelectorError",
    "parse",
    "TRUE_SELECTOR",
    "Predicate",
    "decompose",
    "required_attributes",
]


class SelectorError(ValueError):
    """Raised on lexical, syntactic, or (runtime) type errors.

    When the error can be tied to a token, :attr:`pos` is the 0-based
    character offset into the selector source and :attr:`line` /
    :attr:`column` are the 1-based coordinates of that offset, so
    diagnostics can point at the offending span.
    """

    def __init__(
        self,
        message: str,
        *,
        source: Optional[str] = None,
        pos: Optional[int] = None,
    ) -> None:
        self.source = source
        self.pos = pos
        self.line: Optional[int] = None
        self.column: Optional[int] = None
        if source is not None and pos is not None:
            clamped = min(pos, len(source))
            self.line = source.count("\n", 0, clamped) + 1
            self.column = clamped - (source.rfind("\n", 0, clamped) + 1) + 1
            message = f"{message} (line {self.line}, column {self.column})"
        super().__init__(message)


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op>==|!=|<=|>=|<|>)
  | (?P<punct>[()\[\],])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "in", "contains", "exists", "true", "false"}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'string' | 'op' | 'punct' | 'ident' | keyword itself
    value: Any
    pos: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SelectorError(
                f"bad character {text[pos]!r} at position {pos}", source=text, pos=pos
            )
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        raw = m.group()
        if kind == "number":
            tokens.append(_Token("number", float(raw) if "." in raw else int(raw), m.start()))
        elif kind == "string":
            tokens.append(_Token("string", raw[1:-1], m.start()))
        elif kind == "ident":
            low = raw.lower()
            if low in _KEYWORDS:
                tokens.append(_Token(low, low, m.start()))
            else:
                tokens.append(_Token("ident", raw, m.start()))
        else:
            tokens.append(_Token(kind, raw, m.start()))
    return tokens


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Literal:
    value: Any

    def eval_value(self, env: AttributeMap) -> Any:
        return self.value

    def attributes(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class _Attr:
    name: str

    def eval_value(self, env: AttributeMap) -> Any:
        return env.get(self.name, MISSING)

    def attributes(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class _Compare:
    op: str
    left: Union[_Literal, _Attr]
    right: Any  # _Literal | _Attr | list of _Literal (for 'in')

    def evaluate(self, env: AttributeMap) -> bool:
        lv = self.left.eval_value(env)
        if self.op == "in":
            if lv is MISSING:
                return False
            return any(values_equal(lv, lit.value) for lit in self.right)
        rv = self.right.eval_value(env)
        if lv is MISSING or rv is MISSING:
            return False
        if self.op == "==":
            return values_equal(lv, rv)
        if self.op == "!=":
            return not values_equal(lv, rv)
        if self.op == "contains":
            if not isinstance(lv, (list, tuple)):
                return False
            return any(values_equal(item, rv) for item in lv)
        # ordered comparisons require numbers (or two strings)
        both_num = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (lv, rv)
        )
        both_str = isinstance(lv, str) and isinstance(rv, str)
        if not (both_num or both_str):
            return False
        if self.op == "<":
            return lv < rv
        if self.op == "<=":
            return lv <= rv
        if self.op == ">":
            return lv > rv
        if self.op == ">=":
            return lv >= rv
        raise SelectorError(f"unknown operator {self.op!r}")  # pragma: no cover

    def attributes(self) -> set[str]:
        out = self.left.attributes()
        if self.op == "in":
            return out
        return out | self.right.attributes()


@dataclass(frozen=True)
class _Exists:
    name: str

    def evaluate(self, env: AttributeMap) -> bool:
        return env.get(self.name, MISSING) is not MISSING

    def attributes(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class _BoolAttr:
    """A bare identifier in boolean position: true iff attr is True."""

    name: str

    def evaluate(self, env: AttributeMap) -> bool:
        return env.get(self.name, MISSING) is True

    def attributes(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class _BoolLiteral:
    value: bool

    def evaluate(self, env: AttributeMap) -> bool:
        return self.value

    def attributes(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class _Not:
    operand: Any

    def evaluate(self, env: AttributeMap) -> bool:
        return not self.operand.evaluate(env)

    def attributes(self) -> set[str]:
        return self.operand.attributes()


@dataclass(frozen=True)
class _And:
    operands: tuple

    def evaluate(self, env: AttributeMap) -> bool:
        return all(o.evaluate(env) for o in self.operands)

    def attributes(self) -> set[str]:
        return set().union(*(o.attributes() for o in self.operands))


@dataclass(frozen=True)
class _Or:
    operands: tuple

    def evaluate(self, env: AttributeMap) -> bool:
        return any(o.evaluate(env) for o in self.operands)

    def attributes(self) -> set[str]:
        return set().union(*(o.attributes() for o in self.operands))


#: any boolean-expression AST node the parser can produce
_Node = Union[_Compare, _Exists, _BoolAttr, _BoolLiteral, _Not, _And, _Or]


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
class _Parser:
    def __init__(self, tokens: list[_Token], source: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise SelectorError(
                f"unexpected end of selector: {self.source!r}",
                source=self.source,
                pos=len(self.source),
            )
        self.pos += 1
        return tok

    def expect(self, kind: str, value: Any = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise SelectorError(
                f"expected {value or kind} at position {tok.pos} in {self.source!r},"
                f" got {tok.value!r}",
                source=self.source,
                pos=tok.pos,
            )
        return tok

    # -- grammar ---------------------------------------------------------
    def parse_expr(self) -> _Node:
        node = self.parse_and()
        parts = [node]
        while (tok := self.peek()) is not None and tok.kind == "or":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else _Or(tuple(parts))

    def parse_and(self) -> _Node:
        node = self.parse_not()
        parts = [node]
        while (tok := self.peek()) is not None and tok.kind == "and":
            self.next()
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else _And(tuple(parts))

    def parse_not(self) -> _Node:
        tok = self.peek()
        if tok is not None and tok.kind == "not":
            self.next()
            return _Not(self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> _Node:
        tok = self.peek()
        if tok is None:
            raise SelectorError(
                f"unexpected end of selector: {self.source!r}",
                source=self.source,
                pos=len(self.source),
            )
        if tok.kind == "exists":
            self.next()
            self.expect("punct", "(")
            name = self.expect("ident").value
            self.expect("punct", ")")
            return _Exists(name)
        if tok.kind == "punct" and tok.value == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if tok.kind in ("true", "false"):
            self.next()
            return _BoolLiteral(tok.kind == "true")
        return self.parse_comparison()

    def parse_operand(self) -> Union[_Attr, _Literal]:
        tok = self.next()
        if tok.kind == "ident":
            return _Attr(tok.value)
        if tok.kind == "number":
            return _Literal(tok.value)
        if tok.kind == "string":
            return _Literal(tok.value)
        if tok.kind in ("true", "false"):
            return _Literal(tok.kind == "true")
        raise SelectorError(
            f"expected operand at position {tok.pos} in {self.source!r}",
            source=self.source,
            pos=tok.pos,
        )

    def parse_list(self) -> list[_Literal]:
        self.expect("punct", "[")
        items: list[_Literal] = []
        while True:
            tok = self.next()
            if tok.kind == "number" or tok.kind == "string":
                items.append(_Literal(tok.value))
            elif tok.kind in ("true", "false"):
                items.append(_Literal(tok.kind == "true"))
            else:
                raise SelectorError(
                    f"expected literal in list at {tok.pos}",
                    source=self.source,
                    pos=tok.pos,
                )
            tok = self.next()
            if tok.kind == "punct" and tok.value == "]":
                break
            if not (tok.kind == "punct" and tok.value == ","):
                raise SelectorError(
                    f"expected ',' or ']' at position {tok.pos}",
                    source=self.source,
                    pos=tok.pos,
                )
        if not items:
            raise SelectorError("empty list literal", source=self.source, pos=0)
        return items

    def parse_comparison(self) -> _Node:
        start = self.peek()
        start_pos = start.pos if start is not None else len(self.source)
        left = self.parse_operand()
        tok = self.peek()
        if tok is not None and tok.kind == "op":
            self.next()
            right = self.parse_operand()
            return _Compare(tok.value, left, right)
        if tok is not None and tok.kind == "in":
            self.next()
            return _Compare("in", left, self.parse_list())
        if tok is not None and tok.kind == "contains":
            self.next()
            right = self.parse_operand()
            return _Compare("contains", left, right)
        # bare identifier in boolean position
        if isinstance(left, _Attr):
            return _BoolAttr(left.name)
        if isinstance(left, _Literal) and isinstance(left.value, bool):
            return _BoolLiteral(left.value)
        raise SelectorError(
            f"bare literal {left!r} is not a boolean expression in {self.source!r}",
            source=self.source,
            pos=start_pos,
        )


# ----------------------------------------------------------------------
# conjunctive decomposition (feeds the predicate index)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Predicate:
    """One indexable (attribute, op, value) constraint of a conjunction.

    ``op`` is one of ``'=='``, ``'<'``, ``'<='``, ``'>'``, ``'>='``,
    ``'in'``, ``'contains'``, ``'exists'``, or ``'never'`` (a conjunct
    that is constant-false, so the whole selector matches nothing).  For
    ``'in'`` the value is a tuple of literals; for ``'exists'`` and
    ``'never'`` it is ``None``.
    """

    op: str
    attribute: str = ""
    value: Any = None


_NEVER = Predicate("never")

_ORDERED_OPS = {"<", "<=", ">", ">="}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _const_eval(node: Any) -> bool:
    """Evaluate a conjunct that references no attributes."""
    return bool(node.evaluate({}))


def _decompose_conjunct(node: Any, out: list[Predicate]) -> None:
    """Extract index-usable predicates from one AND-conjunct.

    Conjuncts we cannot index (``!=``, attribute-vs-attribute
    comparisons, nested ``or``/``not``) are simply *dropped*: the
    shortlist they produce is then a superset of the true matches, and
    the full interpreter re-checks every candidate, so decisions stay
    identical to a linear scan.
    """
    if isinstance(node, _And):
        for sub in node.operands:
            _decompose_conjunct(sub, out)
        return
    if isinstance(node, _BoolLiteral):
        if not node.value:
            out.append(_NEVER)
        return
    if isinstance(node, _BoolAttr):
        out.append(Predicate("==", node.name, True))
        return
    if isinstance(node, _Exists):
        out.append(Predicate("exists", node.name))
        return
    if isinstance(node, _Compare):
        left, right = node.left, node.right
        if node.op == "in":
            if isinstance(left, _Attr):
                out.append(Predicate("in", left.name, tuple(lit.value for lit in right)))
            elif not _const_eval(node):
                out.append(_NEVER)
            return
        if not node.attributes():  # constant comparison
            if not _const_eval(node):
                out.append(_NEVER)
            return
        if isinstance(left, _Attr) and isinstance(right, _Attr):
            return  # two-attribute comparison: not indexable, drop
        # normalise to  attr <op> literal
        if isinstance(left, _Literal):
            if node.op == "contains":
                # literal contains X: literals are never lists -> false
                out.append(_NEVER)
                return
            left, right = right, left
            op = node.op if node.op == "==" else _FLIPPED.get(node.op)
        else:
            op = node.op
        lit = right.value
        if op == "==":
            out.append(Predicate("==", left.name, lit))
        elif op == "contains":
            out.append(Predicate("contains", left.name, lit))
        elif op in _ORDERED_OPS:
            # ordered comparisons only ever match numbers against a
            # numeric literal or strings against a string literal; a
            # boolean literal can match nothing
            if isinstance(lit, bool):
                out.append(_NEVER)
            else:
                out.append(Predicate(op, left.name, lit))
        # '!=' falls through: not indexable, drop the conjunct
        return
    # anything else (_Or, _Not) inside the conjunction: drop (superset)


def decompose(selector: "Selector") -> Optional[tuple[Predicate, ...]]:
    """Split a selector into indexable conjunctive predicates.

    Returns ``None`` when the selector's top level is not a conjunction
    the index can shortlist for (a disjunction or negation), in which
    case the caller must fall back to a linear scan.  An empty tuple
    means "no indexable constraint" (e.g. ``true``): every subscriber is
    a candidate.  The returned predicates are a *sound over-approximation*:
    any profile matching the selector satisfies all of them.
    """
    ast = selector._ast
    if isinstance(ast, (_Or, _Not)):
        return None
    out: list[Predicate] = []
    _decompose_conjunct(ast, out)
    return tuple(out)


# ----------------------------------------------------------------------
# required attributes (feeds shard routing)
# ----------------------------------------------------------------------
def _required_attrs(node: Any) -> frozenset[str]:
    """Attributes that must *exist* for ``node`` to possibly be true.

    Sound under the language's missing-attribute semantics: every
    comparison (including ``!=``), bare boolean attribute, and
    ``exists`` is false when the attribute is absent, so any attribute
    such a node references is required.  ``and`` unions its conjuncts'
    requirements; ``or`` can only require what *every* branch requires
    (intersection); ``not`` requires nothing (``not`` of a
    missing-attribute clause is true).
    """
    if isinstance(node, _And):
        out: frozenset[str] = frozenset()
        for sub in node.operands:
            out |= _required_attrs(sub)
        return out
    if isinstance(node, _Or):
        branches = [_required_attrs(sub) for sub in node.operands]
        common = branches[0]
        for b in branches[1:]:
            common &= b
        return common
    if isinstance(node, (_Not, _BoolLiteral, _Literal)):
        return frozenset()
    if isinstance(node, (_Exists, _BoolAttr)):
        return frozenset((node.name,))
    if isinstance(node, _Compare):
        return frozenset(node.attributes())
    return frozenset()  # pragma: no cover - exhaustive over _Node


def required_attributes(selector: "Selector") -> frozenset[str]:
    """Sound lower bound on the attributes a matching profile must have.

    A profile lacking any returned attribute can never satisfy
    ``selector`` — which is what lets the sharded broker skip whole
    shards whose populations do not carry a required attribute at all.
    Computed for *any* selector shape (disjunctions and negations
    included), unlike :func:`decompose`.
    """
    return _required_attrs(selector._ast)


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------
class Selector:
    """A compiled selector expression.

    >>> s = Selector("media == 'video' and size_kb <= 1024")
    >>> s.matches({"media": "video", "size_kb": 800})
    True
    >>> s.matches({"media": "audio", "size_kb": 800})
    False
    >>> s.matches({"media": "video"})   # missing attribute -> clause false
    False
    """

    __slots__ = ("text", "_ast", "_plan", "_required")

    def __init__(self, text: str) -> None:
        self.text = text
        tokens = _lex(text)
        if not tokens:
            raise SelectorError("empty selector")
        parser = _Parser(tokens, text)
        self._ast = parser.parse_expr()
        if parser.peek() is not None:
            tok = parser.peek()
            assert tok is not None
            raise SelectorError(
                f"trailing input at position {tok.pos} in {text!r}",
                source=text,
                pos=tok.pos,
            )
        #: lazily memoised result of :func:`decompose`
        self._plan: Optional[tuple[Predicate, ...]] | str = "unset"
        #: :func:`required_attributes`, computed here so a selector shared
        #: through the parse cache is never written after construction
        self._required = _required_attrs(self._ast)

    def matches(self, env: AttributeMap) -> bool:
        """Evaluate against an attribute map (profile or message headers)."""
        return bool(self._ast.evaluate(env))

    def attributes(self) -> set[str]:
        """All attribute names the expression references."""
        return self._ast.attributes()

    def conjunctive_plan(self) -> Optional[tuple[Predicate, ...]]:
        """Memoised :func:`decompose` of this selector (see there)."""
        if isinstance(self._plan, str):
            self._plan = decompose(self)
        return self._plan

    def required_attributes(self) -> frozenset[str]:
        """:func:`required_attributes` of this selector."""
        return self._required

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Selector) and self._ast == other._ast

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"Selector({self.text!r})"


@lru_cache(maxsize=1024)
def parse(text: str) -> Selector:
    """Compile a selector, LRU-cached by its source text.

    Selectors are immutable once built (the lazily memoised
    :meth:`~Selector.conjunctive_plan` / :meth:`~Selector.required_attributes`
    are pure functions of the text), so every caller holding the same
    text can share one instance — and with it the memoised plan and
    required-attribute set.  Attach-path callers
    (:class:`~repro.core.profiles.ClientProfile`) route through here so
    repeated interests parse once per process instead of once per
    client.  Parse errors are not cached; a bad string raises
    :class:`SelectorError` on every call.
    """
    return Selector(text)


#: Matches every profile — broadcast to the whole session.  The vacuity
#: (tautology) warning is intentional here: this selector *is* broadcast.
TRUE_SELECTOR = Selector("true")  # repro: ignore[SEL002]
