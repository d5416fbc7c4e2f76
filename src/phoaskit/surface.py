"""Concrete syntax: lexer, parser and conversion to closed terms.

Grammar (bodies of lambdas and lets extend maximally to the right,
application and addition associate to the left):

    expr ::= "\\" ident "." expr
           | "let" ident "=" expr "in" expr
           | sum
    sum  ::= app ("+" app)*
    app  ::= atom atom*
    atom ::= ident | integer | "error" | "(" expr ")"

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
from dataclasses import dataclass
from functools import cache
from typing import Any, NamedTuple

from .lang import FULL, App, Err, Lam, Let, Lit, Plus
from .signature import Ann, shape_of
from .term import Term, _BoundToken, _Trusted

KEYWORDS = frozenset({"let", "in", "error"})

# blanks, then one alternative per token class: every non-blank character
# starts a match, so only trailing blanks go unmatched, and the error class,
# one character that is not a blank, can never take a blank by backtracking
_TOKEN = re.compile(
    r"[ \t\r\f\v]*(?:(?P<newline>\n)|(?P<int>[0-9]+)"
    r"|(?P<ident>[a-z][a-zA-Z0-9]*)|(?P<symbol>[\\.()=+])|(?P<error>[^ \t\r\f\v\n]))"
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


class _Token(NamedTuple):
    kind: str  # ident, int, keyword or a literal lexeme
    text: str
    pos: SrcPos


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        lexeme = m.group(kind)
        pos = SrcPos(line, m.start(kind) - line_start + 1)
        if kind == "error":
            raise ParseError(pos, f"unexpected token {lexeme!r}")
        if kind == "symbol" or lexeme in KEYWORDS:
            kind = lexeme
        tokens.append(_Token(kind, lexeme, pos))
    tokens.append(_Token("eof", "", SrcPos(line, len(text) - line_start + 1)))
    return tokens


_ATOM_STARTS = frozenset({"ident", "int", "error", "("})

# recursive descent and the folds over the built term recurse once per
# nesting level; stay well clear of the host's recursion limit
MAX_NESTING = 160


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.bound: list[str] = []  # the names of the enclosing binders, innermost last
        self.unbound: _Token | None = None  # the first identifier none of them binds

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.unexpected()
        return self.advance()

    def unexpected(self) -> ParseError:
        tok = self.peek()
        if tok.kind == "eof":
            # point at the construct left unterminated, not past the end
            pos = self.tokens[self.i - 1].pos if self.i > 0 else tok.pos
            return ParseError(pos, "unexpected end of input")
        return ParseError(tok.pos, f"unexpected token {tok.text!r}")

    def expr(self) -> NAst:
        tok = self.peek()
        if self.depth >= MAX_NESTING:
            raise ParseError(tok.pos, f"nesting too deep (limit {MAX_NESTING})")
        self.depth += 1
        try:
            if tok.kind == "\\":
                self.advance()
                name = self.expect("ident").text
                self.expect(".")
                return NLam(name, self.scoped(name), tok.pos)
            if tok.kind == "let":
                self.advance()
                name = self.expect("ident").text
                self.expect("=")
                bound = self.expr()
                self.expect("in")
                return NLet(name, bound, self.scoped(name), tok.pos)
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
        while self.peek().kind == "+":
            self.advance()
            node = NPlus(node, self.app(), node.pos)
        return node

    def app(self) -> NAst:
        node = self.atom()
        while self.peek().kind in _ATOM_STARTS:
            node = NApp(node, self.atom(), node.pos)
        return node

    def atom(self) -> NAst:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            if self.unbound is None and tok.text not in self.bound:
                self.unbound = tok
            return NVar(tok.text, tok.pos)
        if tok.kind == "int":
            self.advance()
            try:
                return NLit(int(tok.text), tok.pos)
            except ValueError:  # int() of [0-9]+ fails only past the int/str digit limit
                limit = sys.get_int_max_str_digits()
                raise ParseError(tok.pos, f"integer literal over the {limit}-digit limit") from None
        if tok.kind == "error":
            self.advance()
            return NErr(tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise self.unexpected()


def parse_named(text: str) -> NAst:
    """Parse to the named tree, checking closedness after the syntax."""
    parser = _Parser(_lex(text))
    ast = parser.expr()
    if parser.peek().kind != "eof":
        raise parser.unexpected()
    if parser.unbound is not None:
        raise ParseError(parser.unbound.pos, f"unbound identifier {parser.unbound.text!r}")
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
