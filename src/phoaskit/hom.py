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

A :class:`HomCases` is a :class:`~phoaskit.signature.Cases` table whose
default re-tags a constructor into its target signature, its children as
holes.  ``app_term_hom`` maps such a table, lifted or not, from the source
term's tree to the result's: a re-tagged node keeps its mapped slots and
its binder tokens, since a homomorphism never looks into its holes, and
only the contexts that rules produce are validated.  Fusing an algebra
table after a ``HomCases`` gives a table again, by the fusion law: a
re-tagged constructor goes to the algebra's own rule, and a rewritten one
folds the context its rule produced.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Callable

from .algebra import free
from .signature import _CO, _CONTRA, Ann, Cases, Signature, _bare, _identity, fmap_co, split_ann
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


class HomCases(Cases):
    """A homomorphism from per-constructor rules and a re-tag default.

    A rule takes the bare constructor, its children and binders standing
    for holes, and returns a context over ``target``; every constructor
    without a rule is re-tagged into ``target`` with its children as holes.
    """

    __slots__ = ("target",)

    def __init__(self, cases: dict[type, Callable[[Any], Cxt]], target: Signature):
        super().__init__(cases, lambda leaf: In(fmap_co(Hole, target.inj(leaf))))
        self.target = target


class _LiftedCases(HomCases):
    """:func:`lift_ann_hom` of a rule table."""

    __slots__ = ()

    def __call__(self, node) -> Cxt:
        return _lifted(super().__call__, node)


def app_hom(rho: Callable[[Any], Cxt], c: Cxt) -> Cxt:
    """Apply a homomorphism to a context (or preterm)."""

    def walk(c: Cxt) -> Cxt:
        return app_cxt(rho(fmap_co(walk, c.node))) if isinstance(c, In) else c

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
    return Term(lambda: replay(lambda node: app_cxt(rho(node)), t.tree, Var))


def _tree_step(rho: HomCases) -> Callable:
    # the result's tree for one source node, its slots already mapped
    cases, witness = rho.cases, rho.target.witness
    lifted = type(rho) is _LiftedCases

    def step(rec: tuple, values: tuple) -> Any:
        shape, _, tags = rec
        anns = tuple(pair for pair in tags if pair[0] is Ann) if lifted else ()
        rule = cases.get(shape.cls)
        if rule is None:
            return shape, values, witness(shape.cls).tags + anns
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
    """Fuse an algebra after a homomorphism into one algebra: a table, for
    a :class:`~phoaskit.signature.Cases` after a :class:`HomCases`."""
    if _bare(phi) and isinstance(rho, HomCases):
        # rho re-tags each summand of its target it has no rule for, and no other class
        retagged = {cls: phi.cases.get(cls, phi.default) for cls in rho.target.summands}
        fused = {cls: _then(phi, rule) for cls, rule in rho.cases.items()}
        return Cases({**retagged, **fused}, rho.target.inj)
    return _then(phi, rho)


def _then(phi: Callable, rho: Callable) -> Callable[[Any], Any]:
    # phi folded over the context that rho makes of one node
    return lambda node: free(phi, _identity, rho(node))


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

    A node under several ``Ann`` layers reports the innermost one that is
    not ``None``, the annotation closest to the constructor, and a node
    with none reports ``None``; so equal terms, whose keys skip the inner
    ``None`` layers, report equal lists.
    """
    out, stack = [], [t.tree]
    while stack:  # preorder over the tree, without a Python frame per level
        rec = stack.pop()
        if type(rec) is _BoundToken:
            continue
        shape, values, tags = rec
        out.append((shape.name, next((ann for tag, ann in tags if tag is Ann and ann is not None), None)))
        for i in reversed(shape.inner):
            stack.append(values[i][1] if shape.kinds[i] == _CONTRA else values[i])
    return out
