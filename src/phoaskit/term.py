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

The tree is also what the parser and the homomorphisms produce: they build
it directly, from a checked named tree or by mapping a validated tree
(:func:`_map_tree`), and validate only the contexts that homomorphism
rules return.  Every binder in a tree has a token of its own.

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
from typing import Any, Callable, Iterator

from .signature import (
    Ann,
    Node,
    Signature,
    Subsumption,
    _bare,
    _peel,
    _rewrap,
    fmap_co,
    shape_of,
)
del annotations  # the __future__ feature, which a star import would export


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
    :meth:`~phoaskit.signature.Subsumption.proj`).  A child that a
    :class:`~phoaskit.hom.TreeCases` rule got projects to the root of its
    mapped tree, whose children and binders no context may place.
    """
    if type(c) is _Subtree:
        if type(c.tree) is _BoundToken:
            return None
        shape, values, tags = c.tree
        tags = tags if tags == witness.tags else tuple(pair for pair in tags if pair[0] is not Ann)
        if tags != witness.tags or not issubclass(shape.cls, witness.summand):
            return None
        return _node_of(shape, values, None)
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
    ``Hole(h)`` becomes ``h``, and ``Var``, or a child that a homomorphism
    rule placed without a hole, passes through.
    """
    if isinstance(c, In):
        return In(fmap_co(app_cxt, c.node))
    return c.payload if isinstance(c, Hole) else c


class _BoundToken:
    """Opaque token fed to binder slots; exposes nothing to inspect."""

    __slots__ = ()


class _Subtree:
    # a child of the node a homomorphism rule rewrites: its mapped tree, which
    # the rule's context may place once as it is, and again only as a copy
    __slots__ = ("owner", "tree", "placed")

    def __init__(self, owner: object, tree: Any):
        self.owner, self.tree, self.placed = owner, tree, False


class _SourceBinder:
    # a binder of the node a homomorphism rule rewrites: called at a token of
    # the rule's context, it stands for its mapped body with that token bound
    __slots__ = ("owner", "token", "body", "placed")

    def __init__(self, owner: object, token: _BoundToken, body: Any):
        self.owner, self.token, self.body, self.placed = owner, token, body, False

    def __call__(self, arg: Any) -> "_Instance":
        return _Instance(self, arg)


class _Instance:
    __slots__ = ("owner", "binder", "arg")

    def __init__(self, binder: _SourceBinder, arg: Any):
        self.owner, self.binder, self.arg = binder.owner, binder, arg


def _node_of(shape: Any, values: tuple, owner: object) -> Node:
    # a tree node's constructor, its children and binders handed to a rule of
    # owner's node; with owner None, views that _validate admits nowhere
    slots = list(values)
    for i in shape.co:
        slots[i] = _Subtree(owner, slots[i])
    for i in shape.contra:
        slots[i] = _SourceBinder(owner, *slots[i])
    return shape.make(*slots)


def _validate(root: Cxt, owner: object = None, extra: tuple = ()) -> Any:
    """Reject holes, foreign contexts and tokens used outside their binder.

    Returns the validated tree: a variable occurrence is its sealed token,
    and a node is ``(shape, values, tags)`` where ``values`` holds static
    payloads as they are, children as trees and each binder as ``(token,
    tree of its body)``, and ``tags`` holds the ``(type, ann)`` pairs of
    the sum tags and annotations around the node, innermost first, then
    ``extra``.  None of the built preterm's own objects is kept, and each
    binder gets a token of its own.

    With ``owner``, ``root`` is the context a homomorphism rule produced,
    and the children and binders handed to that rule, which carry
    ``owner``, are admitted as holes or in place of a context.  A child
    goes in as its tree.  A source binder called at the variable of an
    enclosing binder of the context goes in as its body with that variable
    bound: its first use gives that binder the source binder's token, so
    the body goes in as it is, unless the variable is already in the tree.
    Any other use of a child or a source binder goes in as a copy with
    fresh binders.
    """
    in_scope: set[int] = set()
    handed: dict = {}  # a binder's token -> the source binder token it took over
    placed: set = set()  # tokens already in the tree as themselves

    def walk(c: Cxt) -> Any:
        if isinstance(c, In):
            node, tags = _peel(c.node)
            shape = shape_of(type(node))
            values = shape.values(node)
            if shape.inner:
                values = list(values)
                for i in shape.inner:  # in slot order, so bodies run in that order
                    values[i] = bind(values[i]) if i in shape.contra else walk(values[i])
                values = tuple(values)
            return shape, values, tuple(tags) + extra
        if isinstance(c, Var):
            token = c.token
            if not isinstance(token, _BoundToken) or id(token) not in in_scope:
                raise ExoticTermError(
                    "Var holds a value that was not supplied by an enclosing "
                    f"binder: {token!r}"
                )
            return occurrence(token)
        if isinstance(c, Hole):
            if owner is None:
                raise ExoticTermError("closed terms cannot contain holes")
            if getattr(c.payload, "owner", None) is not owner:
                raise ExoticTermError("a rule's hole holds no child or binder of its node")
            return place(c.payload)
        if owner is not None and type(c) in (_Subtree, _Instance) and c.owner is owner:
            return place(c)
        raise ExoticTermError(f"not a context: {c!r}")

    def occurrence(token: _BoundToken) -> Any:
        if token in handed:
            return handed[token]
        placed.add(token)
        return token

    def place(w: _Subtree | _Instance) -> Any:
        if type(w) is _Subtree:
            if w.placed:
                return _copy_tree(w.tree, {})
            w.placed = True
            return w.tree
        binder, arg = w.binder, w.arg
        if not isinstance(arg, _BoundToken) or id(arg) not in in_scope:
            raise ExoticTermError(
                f"a source binder was called with {arg!r}, not with the "
                "variable of an enclosing binder"
            )
        if binder.placed or arg in handed or arg in placed:
            return _copy_tree(binder.body, {binder.token: occurrence(arg)})
        binder.placed = True
        handed[arg] = binder.token
        return binder.body

    def bind(body: Callable) -> tuple[_BoundToken, Any]:
        token = _BoundToken()
        in_scope.add(id(token))
        try:
            tree = walk(body(token))
        finally:
            in_scope.discard(id(token))
        return handed.get(token, token), tree

    return walk(root)


def _map_tree(tree: Any, node: Callable, subst: dict | None = None) -> Any:
    """Map a validated tree bottom up, without a Python frame per level.

    ``node(rec, values)`` gives the tree that stands for the node ``rec``,
    whose children and binder bodies are already mapped in ``values``.
    Binders keep their tokens, unless ``subst`` is given: then each binder
    gets a fresh token, which ``subst`` records, and every variable is
    looked up in ``subst``.
    """
    done: list = []
    todo = [tree]
    pop, push = todo.pop, todo.append
    while todo:
        rec = pop()
        if type(rec) is _BoundToken:
            done.append(rec if subst is None else subst.get(rec, rec))
        elif len(rec) == 3:  # a node: its children and bodies first, then itself
            shape, values, _ = rec
            if not shape.inner:
                done.append(node(rec, values))
                continue
            push((rec,))
            for i in reversed(shape.inner):
                value = values[i]
                if i in shape.contra:
                    if subst is not None:
                        subst[value[0]] = _BoundToken()
                    value = value[1]
                push(value)
        else:
            rec = rec[0]
            shape, values, _ = rec
            inner = shape.inner
            mapped = done[-len(inner):]
            del done[-len(inner):]
            values = list(values)
            for i, value in zip(inner, mapped):
                if i in shape.contra:
                    token = values[i][0]
                    value = (token if subst is None else subst[token], value)
                values[i] = value
            done.append(node(rec, tuple(values)))
    return done[0]


def _nodes(tree: Any) -> Iterator[tuple]:
    # the nodes of a validated tree in preorder, without a Python frame per level
    stack = [tree]
    while stack:
        rec = stack.pop()
        if type(rec) is not _BoundToken:
            yield rec
            shape, values, _ = rec
            for i in reversed(shape.inner):
                stack.append(values[i][1] if i in shape.contra else values[i])


def _same_node(rec: tuple, values: tuple) -> tuple:
    return rec[0], values, rec[2]


def _copy_tree(tree: Any, subst: dict) -> Any:
    # a copy with fresh binders, the free variables renamed by subst
    return _map_tree(tree, _same_node, subst)


def replay(phi: Callable, tree: Any, arg: Callable | None = None) -> Any:
    """Fold a validated tree: each node, its children folded first, goes to ``phi``.

    A :class:`~phoaskit.signature.Cases` rule gets the bare constructor,
    any other callable the node rebuilt in its tags.  A binder becomes a
    function whose argument, passed through ``arg`` when given, is what
    the binder's occurrences fold to.  One Python frame per covariant level.
    """
    rule = phi.rule if _bare(phi) else None

    def walk(rec: Any, env: dict) -> Any:
        if type(rec) is _BoundToken:
            return env[rec]
        shape, values, tags = rec
        if shape.inner:
            values = list(values)
            for i in shape.co:
                values[i] = walk(values[i], env)
            for i in shape.contra:
                values[i] = binder(values[i], env)
        node = shape.make(*values)
        if rule is not None:
            return rule(shape.cls)(node)
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

    The parser and the homomorphisms build trees themselves, from checked
    named trees and from validated trees, and hand them over wrapped in
    :class:`_Trusted`; those are kept as they are.  A term's alpha key is
    computed on first use and kept too.
    """

    __slots__ = ("tree", "_key")

    def __init__(self, build: Callable[[], Cxt] | _Trusted):
        self.tree = build.tree if type(build) is _Trusted else _validate(build())
        self._key = None

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


class _Trusted:
    # a tree built in this package from a checked named tree or from validated trees
    __slots__ = ("tree",)

    def __init__(self, tree: Any):
        self.tree = tree


def _alpha_key(t: Term) -> tuple:
    key = t._key
    if key is None:
        from .names import _key

        key = t._key = _key(t.tree)
    return key
