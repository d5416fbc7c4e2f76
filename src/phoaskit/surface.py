"""Concrete syntax: lexer, parser and conversion to closed terms.

Grammar (bodies of lambdas and lets extend maximally to the right,
application and addition associate to the left):

    expr ::= "\\" ident "." expr
           | "let" ident "=" expr "in" expr
           | sum
    sum  ::= app ("+" app)*
    app  ::= atom atom*
    atom ::= ident | integer | "error" | "(" expr ")"

The lexer makes one ``(kind, lexeme, offset)`` tuple per token.  A
:class:`SrcPos` is made from an offset only where a named node or an
error needs one, from a table of the text's line starts, built once, in
which each offset is looked up by bisection.

Parsing builds a named tree, then builds the term's validated tree from
it directly (see :class:`~phoaskit.term.Term`): each binder gets one
sealed token, and each name occurrence becomes the token of the innermost
binder of that name, so inner bindings shadow outer ones.  No preterm or
binder function is made on the way.  Terms are closed: the parser keeps
the names its enclosing binders bind and reports the first identifier, in
source order, that none of them binds, unless the text has a syntax
error, which is reported instead.  Every construct can also be tagged
with the source position of its first lexeme.
"""
from __future__ import annotations

import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from typing import Any

from .lang import FULL, App, Err, Lam, Let, Lit, Plus
from .signature import Ann, shape_of
from .term import Term, _BoundToken, _Trusted

__all__ = [
    "KEYWORDS", "MAX_NESTING", "NAst", "NApp", "NErr", "NLam", "NLet", "NLit", "NPlus", "NVar",
    "ParseError", "SrcPos", "napp", "nerr", "nlam", "nlet", "nlit", "nplus", "nvar",
    "parse", "parse_ann", "parse_named", "term_of_named",
]

KEYWORDS = frozenset({"let", "in", "error"})

# blanks, then one alternative per token class: every non-blank character
# starts a match, so only trailing blanks go unmatched (the lexer stops its
# scan before them), and the error class, one character that is not a
# blank, can never take a blank by backtracking
_BLANKS = " \t\n\r\f\v"
_TOKEN = re.compile(
    rf"[{_BLANKS}]*(?:(?P<int>[0-9]+)|(?P<ident>[a-z][a-zA-Z0-9]*)"
    rf"|(?P<symbol>[\\.()=+])|(?P<error>[^{_BLANKS}]))"
)


@dataclass(frozen=True, order=True)
class SrcPos:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(ValueError):
    def __init__(self, pos: SrcPos, message: str):
        super().__init__(f"{pos}: {message}")
        self.pos = pos
        self.message = message


# Named intermediate tree; also the shape the random generators produce.
# A node built without a position gets the first one.

_NOWHERE = SrcPos(1, 1)


@dataclass(frozen=True)
class NVar:
    name: str
    pos: SrcPos = _NOWHERE


@dataclass(frozen=True)
class NLam:
    name: str
    body: Any
    pos: SrcPos = _NOWHERE


@dataclass(frozen=True)
class NApp:
    fn: Any
    arg: Any
    pos: SrcPos = _NOWHERE


@dataclass(frozen=True)
class NLit:
    value: int
    pos: SrcPos = _NOWHERE


@dataclass(frozen=True)
class NPlus:
    lhs: Any
    rhs: Any
    pos: SrcPos = _NOWHERE


@dataclass(frozen=True)
class NLet:
    name: str
    bound: Any
    body: Any
    pos: SrcPos = _NOWHERE


@dataclass(frozen=True)
class NErr:
    pos: SrcPos = _NOWHERE


NAst = Any

nvar, nlam, napp, nlit, nplus, nlet, nerr = NVar, NLam, NApp, NLit, NPlus, NLet, NErr


@cache
def _named_shapes() -> dict:
    # each named class -> the shape and FULL tags of its constructor
    core = {NLam: Lam, NApp: App, NLit: Lit, NPlus: Plus, NErr: Err, NLet: Let}
    return {cls: (shape_of(c), FULL.witness(c).tags) for cls, c in core.items()}


def _position_of(text: str):
    """The function from an offset in ``text`` to its :class:`SrcPos`."""
    starts = [0, *(m.end() for m in re.finditer("\n", text))]  # the offset of each line

    def pos(offset: int) -> SrcPos:
        line = bisect_right(starts, offset)
        return SrcPos(line, offset - starts[line - 1] + 1)

    return pos


def _lex(text: str) -> list[tuple[str, str, int]]:
    # (kind, lexeme, offset) per token, kind being ident, int, eof, or the
    # lexeme of a symbol or keyword; positions are made from offsets only
    # where a node or an error needs one
    tokens = []
    for m in _TOKEN.finditer(text, 0, len(text.rstrip(_BLANKS))):
        kind = m.lastgroup
        lexeme = m[kind]
        offset = m.start(kind)
        if kind == "error":
            raise ParseError(_position_of(text)(offset), f"unexpected token {lexeme!r}")
        if kind == "symbol" or lexeme in KEYWORDS:
            kind = lexeme
        tokens.append((kind, lexeme, offset))
    tokens.append(("eof", "", len(text)))
    return tokens


_ATOM_STARTS = frozenset({"ident", "int", "error", "("})

# recursive descent and the folds over the built term recurse once per
# nesting level; stay well clear of the host's recursion limit
MAX_NESTING = 160


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = _position_of(text)
        self.i = 0
        self.depth = 0
        self.bound: list[str] = []  # the names of the enclosing binders, innermost last
        self.unbound: tuple | None = None  # the first identifier none of them binds

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise self.unexpected()
        self.i += 1
        return tok

    def unexpected(self) -> ParseError:
        kind, lexeme, offset = self.tokens[self.i]
        if kind == "eof":
            # point at the construct left unterminated, not past the end
            if self.i > 0:
                offset = self.tokens[self.i - 1][2]
            return ParseError(self.pos(offset), "unexpected end of input")
        return ParseError(self.pos(offset), f"unexpected token {lexeme!r}")

    def expr(self) -> NAst:
        kind, _, offset = self.tokens[self.i]
        if self.depth >= MAX_NESTING:
            raise ParseError(self.pos(offset), f"nesting too deep (limit {MAX_NESTING})")
        self.depth += 1
        try:
            if kind == "\\":
                self.i += 1
                name = self.expect("ident")[1]
                self.expect(".")
                return NLam(name, self.scoped(name), self.pos(offset))
            if kind == "let":
                self.i += 1
                name = self.expect("ident")[1]
                self.expect("=")
                bound = self.expr()
                self.expect("in")
                return NLet(name, bound, self.scoped(name), self.pos(offset))
            return self.sum()
        finally:
            self.depth -= 1

    def scoped(self, name: str) -> NAst:
        self.bound.append(name)  # a binder's body, in which ``name`` is bound
        body = self.expr()
        self.bound.pop()
        return body

    def sum(self) -> NAst:
        node = self.app()
        tokens = self.tokens
        while tokens[self.i][0] == "+":
            self.i += 1
            node = NPlus(node, self.app(), node.pos)
        return node

    def app(self) -> NAst:
        # a run of atoms, applied from the left
        tokens, node = self.tokens, None
        while True:
            kind, lexeme, offset = tokens[self.i]
            if kind not in _ATOM_STARTS:
                if node is None:
                    raise self.unexpected()
                return node
            self.i += 1
            if kind == "ident":
                if self.unbound is None and lexeme not in self.bound:
                    self.unbound = (lexeme, offset)
                arg = NVar(lexeme, self.pos(offset))
            elif kind == "int":
                try:
                    arg = NLit(int(lexeme), self.pos(offset))
                except ValueError:  # int() of [0-9]+ fails only past the int/str digit limit
                    limit = sys.get_int_max_str_digits()
                    raise ParseError(self.pos(offset), f"integer literal over the {limit}-digit limit") from None
            elif kind == "error":
                arg = NErr(self.pos(offset))
            else:
                arg = self.expr()
                self.expect(")")
            node = arg if node is None else NApp(node, arg, node.pos)


def parse_named(text: str) -> NAst:
    """Parse to the named tree, checking closedness after the syntax."""
    parser = _Parser(text)
    ast = parser.expr()
    if parser.tokens[parser.i][0] != "eof":
        raise parser.unexpected()
    if parser.unbound is not None:
        name, offset = parser.unbound
        raise ParseError(parser.pos(offset), f"unbound identifier {name!r}")
    return ast


def term_of_named(ast: NAst, annotate: bool = False) -> Term:
    """Build a closed term over ``FULL`` from a named tree.

    The term's tree is built directly, with an explicit stack instead of a
    Python frame per level and one token per binder; with ``annotate``,
    every node is tagged with its position.  A name that no enclosing
    binder binds raises :class:`ParseError` at its position.
    """
    shapes = _named_shapes()
    scopes: dict[str, list] = {}  # name -> the tokens binding it, innermost last
    done: list = []
    todo = [ast]
    while todo:
        item = todo.pop()
        cls = type(item)
        if cls is NVar:
            tokens = scopes.get(item.name)
            if not tokens:
                raise ParseError(item.pos, f"unbound identifier {item.name!r}")
            done.append(tokens[-1])
            continue
        if cls is tuple:
            if len(item) == 2:  # the bound part of a let is done: its name is bound from here on
                name, token = item
                scopes.setdefault(name, []).append(token)
                continue
            shape, tags, name, token = item  # every child is done: build the node
            n = len(shape.inner)
            values = tuple(done[-n:])
            del done[-n:]
            if token is not None:
                scopes[name].pop()
                values = values[:-1] + ((token, values[-1]),)
            done.append((shape, values, tags))
            continue
        try:
            shape, tags = shapes[cls]
        except KeyError:
            raise TypeError(f"not a named tree: {item!r}") from None
        if annotate:
            tags += ((Ann, item.pos),)
        if cls is NLit:
            done.append((shape, (item.value,), tags))
        elif cls is NErr:
            done.append((shape, (), tags))
        elif cls is NLam:
            token = _BoundToken()
            scopes.setdefault(item.name, []).append(token)
            todo += ((shape, tags, item.name, token), item.body)
        elif cls is NLet:
            token = _BoundToken()
            todo += ((shape, tags, item.name, token), item.body, (item.name, token), item.bound)
        else:
            first, second = (item.fn, item.arg) if cls is NApp else (item.lhs, item.rhs)
            todo += ((shape, tags, None, None), second, first)
    return Term(_Trusted(done[0]))


def parse(text: str) -> Term:
    """Parse a closed expression; raises :class:`ParseError` otherwise."""
    return term_of_named(parse_named(text))


def parse_ann(text: str) -> Term:
    """Like :func:`parse`, tagging every node with its first lexeme's position."""
    return term_of_named(parse_named(text), annotate=True)
