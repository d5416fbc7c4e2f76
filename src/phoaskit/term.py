"""Contexts, preterms and closed parametric terms.

A context is built from three constructors:

* ``In(node)`` wraps one signature node whose children are contexts,
* ``Var(token)`` is a bound-variable occurrence,
* ``Hole(payload)`` is a placeholder used only while rewriting.

A *preterm* is a hole-free context.  A closed :class:`Term` is built from
a builder that produces a preterm.  Construction runs the builder once and
validates its output with sealed tokens, calling each binder body once;
the walk records what it saw as a first-order validated tree, and the term
keeps that tree instead of the builder.  A parametric term has a single
first-order shape, so the tree can be replayed at whatever variable type
the consuming fold chooses, which is what makes one term reusable as input
to printing, counting, evaluation and equality alike, and no builder or
upstream pass runs again when a term, or a term derived from it, is folded.

Binders follow the smart-constructor convention: the stored slot receives
a raw token and wraps it in ``Var`` before calling the user's body
function, so body functions only ever see ``Var``-wrapped opaque tokens.
Body functions must be pure, total and must not inspect their argument;
validation rejects anything that smuggles a foreign value into ``Var`` or
lets a token escape its binder's scope.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Any, Callable

from .signature import (
    Ann,
    Node,
    Signature,
    Subsumption,
    _peel,
    _rewrap,
    fmap_co,
    shape_of,
)


@dataclass(frozen=True)
class In:
    node: Any


@dataclass(frozen=True)
class Var:
    token: Any


@dataclass(frozen=True)
class Hole:
    payload: Any


Cxt = Any  # In | Var | Hole; kept loose, folds dispatch by isinstance


class ExoticTermError(ValueError):
    """The built preterm is not the image of any object-language term."""


def var_of(token: Any) -> Var:
    return Var(token)


def inject(node: Node, sig: Signature, ann: Any = None) -> In:
    """Wrap a constructor node in its injection path and an ``In``.

    With ``ann`` the node is additionally tagged, producing a context over
    the annotated signature.
    """
    wrapped = sig.inj(node)
    if ann is not None:
        wrapped = Ann(wrapped, ann)
    return In(wrapped)


def project(c: Cxt, witness: Subsumption) -> Node | None:
    """Project the head of a context back to one summand.

    Answers ``None`` on ``Var`` and ``Hole``, and on ``In`` nodes whose
    injection path belongs to a different summand.  Every annotation layer
    is looked through, between the sum tags too (see
    :meth:`~phoaskit.signature.Subsumption.proj`).
    """
    return witness.proj(c.node) if isinstance(c, In) else None


def smart_binder(f: Callable[[Cxt], Cxt]) -> Callable[[Any], Cxt]:
    """Turn a body function over contexts into a stored binder slot.

    The slot receives a raw token and hands ``f`` the ``Var``-wrapped
    occurrence, i.e. ``slot(t) == f(Var(t))``.
    """
    return lambda token: f(Var(token))


def app_cxt(c: Cxt) -> Cxt:
    """Merge one layer of nesting: replace every hole by its payload.

    ``In`` nodes are rebuilt with the merge mapped over their children,
    ``Var`` passes through, and ``Hole(h)`` becomes ``h``.
    """
    if isinstance(c, In):
        return In(fmap_co(app_cxt, c.node))
    if isinstance(c, Var):
        return c
    return c.payload


class _BoundToken:
    """Opaque token fed to binder slots; exposes nothing to inspect."""

    __slots__ = ()


def _validate(root: Cxt) -> Any:
    """Reject holes, foreign contexts and tokens used outside their binder.

    Returns the validated tree: a variable occurrence is its sealed token,
    and a node is ``(shape, values, tags)`` where ``values`` holds static
    payloads as they are, children as trees and each binder as ``(token,
    tree of its body)``, and ``tags`` holds the ``(type, ann)`` pairs of
    the sum tags and annotations around the node, innermost first.  None
    of the built preterm's own objects is kept.
    """
    in_scope: set[int] = set()

    def walk(c: Cxt) -> Any:
        if isinstance(c, In):
            node, tags = _peel(c.node)
            shape = shape_of(type(node))
            values = shape.values(node)
            if shape.co or shape.contra:
                values = list(values)
                for i in range(len(values)):  # in slot order, so bodies run in that order
                    if i in shape.co:
                        values[i] = walk(values[i])
                    elif i in shape.contra:
                        values[i] = bind(values[i])
                values = tuple(values)
            return shape, values, tuple(tags)
        if isinstance(c, Var):
            token = c.token
            if not isinstance(token, _BoundToken) or id(token) not in in_scope:
                raise ExoticTermError(
                    "Var holds a value that was not supplied by an enclosing "
                    f"binder: {token!r}"
                )
            return token
        if isinstance(c, Hole):
            raise ExoticTermError("closed terms cannot contain holes")
        raise ExoticTermError(f"not a context: {c!r}")

    def bind(body: Callable) -> tuple[_BoundToken, Any]:
        token = _BoundToken()
        in_scope.add(id(token))
        try:
            return token, walk(body(token))
        finally:
            in_scope.discard(id(token))

    return walk(root)


def replay(phi: Callable, tree: Any, arg: Callable | None = None) -> Any:
    """Fold a validated tree: each node, rebuilt with its tags, goes to ``phi``.

    Children are folded first; a binder becomes a function whose argument,
    passed through ``arg`` when given, is what the binder's occurrences
    fold to.  One Python frame per covariant level.
    """

    def walk(rec: Any, env: dict) -> Any:
        if type(rec) is _BoundToken:
            return env[rec]
        shape, values, tags = rec
        if shape.co or shape.contra:
            values = list(values)
            for i in shape.co:
                values[i] = walk(values[i], env)
            for i in shape.contra:
                values[i] = binder(values[i], env)
        node = shape.make(*values)
        return phi(_rewrap(node, tags) if tags else node)

    def binder(bound: tuple, env: dict) -> Callable:
        token, body = bound
        return lambda x: walk(body, {**env, token: x if arg is None else arg(x)})

    return walk(tree, {})


@total_ordering
class Term:
    """A closed term: the tree its builder produced, validated once.

    Construction runs the builder once and walks the built preterm with
    sealed tokens, calling every binder body once; the walk keeps a
    first-order record of what it saw (see :func:`_validate`) and the
    builder is dropped.  That record is the term: a parametric term has
    one first-order shape, so folds replay it at whatever carrier they
    choose (:func:`replay`), and no builder or upstream pass runs again.
    The three classic exotic shapes (a concrete payload under ``Var``, a
    body that folds its argument, a body that case-splits on its argument)
    are thereby either rejected outright or rendered inert, since bodies
    only ever receive an opaque token wrapped in ``Var``.
    """

    __slots__ = ("tree",)

    def __init__(self, build: Callable[[], Cxt]):
        self.tree = _validate(build())

    def preterm(self) -> Cxt:
        """Rebuild a fresh preterm from the validated tree.

        The result's ``Var`` tokens are whatever the caller feeds through
        the binder slots; treat tokens as opaque.
        """
        return replay(In, self.tree, Var)

    # terms compare, order and hash by their alpha key (see phoaskit.names),
    # the only sensible equality for a binder representation built from functions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return _alpha_key(self) == _alpha_key(other)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return _alpha_key(self) < _alpha_key(other)

    def __hash__(self) -> int:
        return hash(_alpha_key(self))

    def __repr__(self) -> str:
        from .names import struct_show

        return f"Term({struct_show(self)})"


def _alpha_key(t: Term) -> tuple:
    from .names import _key

    return _key(t.tree)
