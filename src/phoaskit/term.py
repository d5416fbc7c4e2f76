"""Contexts, preterms and closed parametric terms.

A context is built from three constructors:

* ``In(node)`` wraps one signature node whose children are contexts,
* ``Var(token)`` is a bound-variable occurrence,
* ``Hole(payload)`` is a placeholder used only while rewriting.

A *preterm* is a hole-free context.  A closed :class:`Term` packages a
builder that produces a fresh preterm on demand; the variable type is
whatever the consuming fold chooses to feed through the binders, which is
what makes one term reusable as input to printing, counting, evaluation
and equality alike.

Binders follow the smart-constructor convention: the stored slot receives
a raw token and wraps it in ``Var`` before calling the user's body
function, so body functions only ever see ``Var``-wrapped opaque tokens.
Body functions must be pure, total and must not inspect their argument;
:class:`Term` construction walks the built preterm with sealed tokens and
rejects anything that smuggles a foreign value into ``Var`` or lets a
token escape its binder's scope.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .signature import (
    Ann,
    Node,
    Signature,
    Subsumption,
    fmap_co,
    leaf_of,
    map_slots,
    unwrap_node,
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
    injection path belongs to a different summand.  Annotations are looked
    through.
    """
    if not isinstance(c, In):
        return None
    node = c.node
    if isinstance(node, Ann):
        node = node.node
    return witness.proj(node)


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


def map_holes(f: Callable[[Any], Any], c: Cxt) -> Cxt:
    """Map a function over every hole payload of a context."""
    if isinstance(c, In):
        return In(fmap_co(lambda child: map_holes(f, child), c.node))
    if isinstance(c, Var):
        return c
    return Hole(f(c.payload))


class _BoundToken:
    """Opaque token fed to binder slots; exposes nothing to inspect."""

    __slots__ = ()


def iter_nodes(c: Cxt, tokens: Callable[[], Any] = _BoundToken) -> Iterator[tuple[Node, Any]]:
    """Yield ``(constructor_node, annotation)`` for every ``In`` node.

    Binder slots are instantiated with fresh tokens so bodies are walked
    exactly once.  Preorder, children in declaration order.
    """
    if isinstance(c, Var):
        return
    if isinstance(c, Hole):
        payload = c.payload
        if isinstance(payload, (In, Var, Hole)):
            yield from iter_nodes(payload, tokens)
        return
    leaf, _, ann = unwrap_node(c.node)
    yield leaf, ann
    walk = lambda child: iter_nodes(child, tokens)
    for nodes in map_slots(leaf, walk, lambda body: walk(body(tokens())), lambda _: ()):
        yield from nodes


def hole_count(c: Cxt) -> int:
    """Number of holes in a context (binder bodies walked once)."""
    if isinstance(c, Hole):
        return 1
    if isinstance(c, Var):
        return 0
    bind = lambda body: hole_count(body(_BoundToken()))
    return sum(map_slots(leaf_of(c.node), hole_count, bind, lambda _: 0))


def _validate(root: Cxt) -> None:
    """Reject holes, foreign contexts and tokens used outside their binder."""
    in_scope: set[int] = set()

    def walk(c: Cxt) -> None:
        if isinstance(c, In):
            for _ in map_slots(leaf_of(c.node), walk, bind):
                pass
        elif isinstance(c, Var):
            token = c.token
            if not isinstance(token, _BoundToken) or id(token) not in in_scope:
                raise ExoticTermError(
                    "Var holds a value that was not supplied by an enclosing "
                    f"binder: {token!r}"
                )
        elif isinstance(c, Hole):
            raise ExoticTermError("closed terms cannot contain holes")
        else:
            raise ExoticTermError(f"not a context: {c!r}")

    def bind(body: Callable) -> None:
        token = _BoundToken()
        in_scope.add(id(token))
        try:
            walk(body(token))
        finally:
            in_scope.discard(id(token))

    walk(root)


class Term:
    """A closed term: a builder producing a fresh preterm per fold.

    The builder plays the role of quantification over the variable type:
    folds instantiate it at their carrier, equality and printing at names.
    Construction validates the built preterm once with sealed tokens; the
    three classic exotic shapes (a concrete payload under ``Var``, a body
    that folds its argument, a body that case-splits on its argument) are
    thereby either rejected outright or rendered inert, since bodies only
    ever receive an opaque token wrapped in ``Var``.
    """

    __slots__ = ("_build",)

    def __init__(self, build: Callable[[], Cxt]):
        self._build = build
        _validate(build())

    def preterm(self) -> Cxt:
        """Instantiate the builder once.

        The result's ``Var`` tokens are whatever the caller feeds through
        the binder slots; treat tokens as opaque.
        """
        return self._build()

    # terms compare and order up to alpha-equivalence, the only sensible
    # equality for a binder representation built from functions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        from .names import alpha_eq

        return alpha_eq(self, other)

    def __lt__(self, other: "Term") -> bool:
        from .names import alpha_compare

        return alpha_compare(self, other) < 0

    def __le__(self, other: "Term") -> bool:
        from .names import alpha_compare

        return alpha_compare(self, other) <= 0

    def __gt__(self, other: "Term") -> bool:
        from .names import alpha_compare

        return alpha_compare(self, other) > 0

    def __ge__(self, other: "Term") -> bool:
        from .names import alpha_compare

        return alpha_compare(self, other) >= 0

    __hash__ = None  # alpha-classes have no cheap canonical key

    def __repr__(self) -> str:
        from .names import struct_show

        return f"Term({struct_show(self)})"
