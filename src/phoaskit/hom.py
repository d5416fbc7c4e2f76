"""Term homomorphisms: fusable constructor-to-context transformations.

A homomorphism maps one source node to a context over the target
signature, embedding the node's children through holes rather than
inspecting them.  Application merges the produced contexts:

    app_hom rho: In(t)  -> app_cxt(rho(fmap_co(app_hom rho, t)))
                 Var(x) -> Var(x)
                 Hole(h)-> Hole(h)

Unlike general folds, homomorphisms compose: with another homomorphism
(``compose_hom``) and with an algebra (``compose_alg_hom``), satisfying

    app_hom(r1) . app_hom(r2) == app_hom(compose_hom(r1, r2))
    cata(phi) . app_term_hom(rho) == cata(compose_alg_hom(phi, rho))

so staged pipelines can be collapsed into a single traversal.  They also
lift over annotated signatures, propagating each source node's annotation
onto every node the rule produced.

A :class:`HomCases` rule table re-tags every constructor it has no rule
for into its target signature.  ``app_hom`` and ``compose_alg_hom`` send
such a node, its slots already mapped, straight to ``In(target.inj(leaf))``
or ``phi(target.inj(leaf))``, skipping the context of holes that the
general path builds and merges away again; other callables take that path.
``app_term_hom`` maps a rule table, lifted or not, from the source term's
tree to the result's: a re-tagged node keeps its mapped slots and its
binder tokens, since a homomorphism never looks into its holes, and only
the contexts that rules produce are validated.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Callable

from .algebra import free
from .signature import _CO, _CONTRA, Ann, Signature, fmap_co, leaf_of, split_ann
from .term import (
    Cxt,
    Hole,
    In,
    Term,
    Var,
    _BoundToken,
    _map_tree,
    _SourceBinder,
    _Subtree,
    _Trusted,
    _validate,
    app_cxt,
    replay,
)


class HomCases:
    """A homomorphism from per-constructor rules and a re-tag default.

    The counterpart of :func:`~phoaskit.algebra.make_cases`: tags and
    annotations are stripped before dispatch, and a constructor without a
    rule is re-tagged into ``target`` with its children as holes.
    """

    __slots__ = ("cases", "target")

    def __init__(self, cases: dict[type, Callable[[Any], Cxt]], target: Signature):
        self.cases = cases
        self.target = target

    def __call__(self, node) -> Cxt:
        leaf = leaf_of(node)
        rule = self.cases.get(type(leaf))
        return In(fmap_co(Hole, self.target.inj(leaf))) if rule is None else rule(leaf)


class _LiftedCases(HomCases):
    """:func:`lift_ann_hom` of a rule table."""

    __slots__ = ()

    def __call__(self, node) -> Cxt:
        return _lifted(super().__call__, node)


def _dispatch(rho: Callable[[Any], Cxt], retag: Callable, merge: Callable) -> Callable:
    # one node, its slots already mapped: a HomCases sends a constructor it has
    # no rule for to retag(target.inj(leaf)), every other context goes to merge
    if type(rho) is not HomCases:
        return lambda node: merge(rho(node))
    cases, target = rho.cases, rho.target

    def step(node):
        leaf = leaf_of(node)
        rule = cases.get(type(leaf))
        return retag(target.inj(leaf)) if rule is None else merge(rule(leaf))

    return step


def app_hom(rho: Callable[[Any], Cxt], c: Cxt) -> Cxt:
    """Apply a homomorphism to a context (or preterm)."""
    step = _dispatch(rho, In, app_cxt)

    def walk(c: Cxt) -> Cxt:
        return step(fmap_co(walk, c.node)) if isinstance(c, In) else c

    return walk(c)


def app_term_hom(rho: Callable[[Any], Cxt], t: Term) -> Term:
    """Apply a homomorphism underneath the closed-term wrapper.

    A :class:`HomCases`, lifted or not, maps the source's tree to the
    result's, without a Python frame per level.  A node without a rule
    keeps its mapped slots and binder tokens under the target's tags.  A
    rule gets the node with its children and binders standing for their
    mapped trees, and only the context it returns is validated (see
    :func:`~phoaskit.term._validate`).  Any other callable folds the
    source's tree once (:func:`~phoaskit.term.replay`), one Python frame
    per covariant level, and the result is validated.
    """
    if isinstance(rho, HomCases):
        return Term(_Trusted(_map_tree(t.tree, _tree_step(rho))))
    return Term(lambda: replay(_dispatch(rho, In, app_cxt), t.tree, Var))


def _tree_step(rho: HomCases) -> Callable:
    # the result's tree for one source node, its slots already mapped
    cases, target = rho.cases, rho.target
    lifted = type(rho) is _LiftedCases

    def step(rec: tuple, values: tuple) -> Any:
        shape, _, tags = rec
        anns = tuple(pair for pair in tags if pair[0] is Ann) if lifted else ()
        rule = cases.get(shape.cls)
        if rule is None:
            return shape, values, target.tags(shape.cls) + anns
        owner = object()  # admits this node's children and binders in the rule's context only
        slots = []
        for kind, value in zip(shape.kinds, values):
            if kind == _CO:
                value = _Subtree(owner, value)
            elif kind == _CONTRA:
                value = _SourceBinder(owner, *value)
            slots.append(value)
        return _validate(rule(shape.make(*slots)), owner, anns)

    return step


def compose_hom(rho1: Callable, rho2: Callable) -> Callable[[Any], Cxt]:
    """Fuse two homomorphisms into one traversal."""
    return lambda node: app_hom(rho1, rho2(node))


def compose_alg_hom(phi: Callable, rho: Callable) -> Callable[[Any], Any]:
    """Fuse an algebra after a homomorphism into one algebra."""
    return _dispatch(rho, phi, partial(free, phi, _identity))


def _identity(x):
    return x


def identity_hom(target: Signature) -> HomCases:
    """Re-tag nodes into ``target`` without touching their structure.

    This is both the identity homomorphism (when source and target agree)
    and the default rule a pass assembly falls back to for constructors it
    does not rewrite.  It also deep-injects terms over a sub-signature
    into a larger one via :func:`app_term_hom`.
    """
    return HomCases({}, target)


def lift_ann_hom(rho: Callable[[Any], Cxt]) -> Callable[[Any], Cxt]:
    """Lift a homomorphism to annotated signatures.

    The rule sees the source node without its annotation layers ``p1 ...
    pk``, wherever they sit among the sum tags, and every node of the
    context it produces is put under ``p1 ... pk``, innermost first;
    variables and holes stay untagged.  Multi-node rewrites (a sugared
    form expanding to several core nodes) thus spread the source
    annotations over all of their output, and the lifted identity is the
    identity.  A lifted :class:`HomCases` is one still, so
    :func:`app_term_hom` maps it tree to tree.
    """
    if isinstance(rho, HomCases):
        return _LiftedCases(rho.cases, rho.target)
    return partial(_lifted, rho)


def _lifted(rho: Callable[[Any], Cxt], node) -> Cxt:
    node, anns = split_ann(node)
    out = rho(node)
    return _annotate(out, anns) if anns else out


def _annotate(c: Cxt, anns: list) -> Cxt:
    if isinstance(c, In):
        node = fmap_co(lambda child: _annotate(child, anns), c.node)
        for ann in anns:
            node = Ann(node, ann)
        return In(node)
    return c


def strip_ann(t: Term) -> Term:
    """Forget every annotation layer, preserving structure and sum tags."""
    return Term(_Trusted(_map_tree(t.tree, _strip_node)))


def _strip_node(rec: tuple, values: tuple) -> tuple:
    shape, _, tags = rec
    return shape, values, tuple(pair for pair in tags if pair[0] is not Ann)


def annotations(t: Term) -> list[tuple[str, Any]]:
    """Preorder list of ``(constructor name, annotation)`` pairs.

    A node under several ``Ann`` layers reports the innermost one, the
    annotation closest to the constructor; a node with none reports ``None``.
    """
    out, stack = [], [t.tree]
    while stack:  # preorder over the tree, without a Python frame per level
        rec = stack.pop()
        if type(rec) is _BoundToken:
            continue
        shape, values, tags = rec
        out.append((shape.name, next((ann for tag, ann in tags if tag is Ann), None)))
        for i in reversed(shape.inner):
            stack.append(values[i][1] if shape.kinds[i] == _CONTRA else values[i])
    return out
