"""Term homomorphisms: fusable constructor-to-context transformations.

A homomorphism maps one source node to a context over the target
signature, embedding the node's children through holes rather than
inspecting them.  Application merges the produced contexts:

    app_hom rho: In(t)  -> app_cxt(rho(fmap_co(app_hom rho, t)))
                 Var(x) -> Var(x)
                 Hole(h)-> Hole(h)

A homomorphism is a :class:`HomCases`, a rule table whose default
re-tags a constructor into the target signature, its children as holes;
the functions here that take one, but ``app_hom``, raise ``TypeError``
on anything else (``app_term_hom`` maps any :class:`TreeCases`).
Homomorphisms compose into a ``HomCases`` (``compose_hom``), fuse with
an algebra into a table (``compose_alg_hom``) and lift over annotated
signatures (``lift_ann_hom``), satisfying

    app_hom(r1) . app_hom(r2) == app_hom(compose_hom(r1, r2))
    cata(phi) . app_term_hom(rho) == cata(compose_alg_hom(phi, rho))

so staged pipelines can be collapsed into a single traversal.  The
second law holds for algebras that do not read annotations: a fused table
calls its rules on bare constructors, so a lifted ``rho``'s annotations
reach ``phi`` only when staged.
"""
from __future__ import annotations

from typing import Any, Callable

from .algebra import free
from .signature import Ann, Cases, Signature, _bare, _identity, _peel, dimap, fmap_co
from .term import (
    Cxt,
    Hole,
    In,
    Term,
    _map_tree,
    _node_of,
    _nodes,
    _Trusted,
    _validate,
    app_cxt,
)


class TreeCases(Cases):
    """Per-constructor rules that map a term's tree into ``target``, bottom up.

    :func:`app_term_hom` hands a rule the bare constructor, its children
    and binders standing for their already mapped trees, and the rule
    returns a context over ``target``, or ``None`` to decline.  A
    constructor without a rule, or whose rule declines, is re-tagged into
    ``target``, its slots as they were mapped.  :func:`~phoaskit.term.project`
    of a child answers the root constructor of its mapped tree, so a rule
    can inspect what the table computed below it, as constant folding does;
    fusion does not hold for such a table, which ``compose_hom`` and
    ``compose_alg_hom`` therefore refuse.  Every context a rule returns is
    validated.
    """

    __slots__ = ("target",)

    def __init__(self, cases: dict[type, Callable[[Any], Cxt | None]], target: Signature):
        super().__init__(cases, lambda leaf: In(fmap_co(Hole, target.inj(leaf))))
        self.target = target


class HomCases(TreeCases):
    """A homomorphism: a :class:`TreeCases` whose rules never project a
    child and never decline, so its children and binders stand for holes."""

    __slots__ = ()


class _LiftedCases(HomCases):
    """:func:`lift_ann_hom` of a rule table."""

    __slots__ = ()

    def __call__(self, node) -> Cxt:
        leaf, tags = _peel(node)
        anns = [ann for tag, ann in tags if tag is Ann]  # wherever they sit among the sum tags
        if not anns:
            return self.rule(type(leaf))(leaf)
        kept: dict = {}  # the children and body instances the rule got, alive for the call, so no id is reused

        def keep(c: Cxt) -> Cxt:
            kept[id(c)] = c
            return c

        return _annotate(self.rule(type(leaf))(dimap(_identity, keep, leaf)), anns, kept)


def _annotate(c: Cxt, anns: list, kept: dict) -> Cxt:
    # every node the rule built goes under the layers; what it placed as it is stays so
    if isinstance(c, In) and id(c) not in kept:
        node = fmap_co(lambda child: _annotate(child, anns, kept), c.node)
        for ann in anns:
            node = Ann(node, ann)
        return In(node)
    return c


def _table(rho: Any) -> HomCases:
    if not isinstance(rho, HomCases):
        raise TypeError(f"a homomorphism is a HomCases table, not {type(rho).__name__}")
    return rho


def app_hom(rho: Callable[[Any], Cxt], c: Cxt) -> Cxt:
    """Apply a homomorphism to a context (or preterm), by the definition above."""

    def walk(c: Cxt) -> Cxt:
        return app_cxt(rho(fmap_co(walk, c.node))) if isinstance(c, In) else c

    return walk(c)


def app_term_hom(rho: TreeCases, t: Term) -> Term:
    """Apply a homomorphism, or any :class:`TreeCases`, underneath the
    closed-term wrapper.

    The table, lifted or not, maps the source's tree to the result's,
    without a Python frame per level.  A node without a rule, or whose rule
    declines, keeps its mapped slots and binder tokens under the target's
    tags.  A rule gets the node with its children and binders standing for
    their mapped trees, and only the context it returns is validated (see
    :func:`~phoaskit.term._validate`).
    """
    if not isinstance(rho, TreeCases):
        raise TypeError(f"app_term_hom maps a TreeCases or HomCases table, not {type(rho).__name__}")
    return Term(_Trusted(_map_tree(t.tree, _tree_step(rho))))


def _tree_step(rho: TreeCases) -> Callable:
    # the result's tree for one source node, its slots already mapped
    cases, witness = rho.cases, rho.target.witness
    lifted = type(rho) is _LiftedCases

    def step(rec: tuple, values: tuple) -> Any:
        shape, _, tags = rec
        anns = tuple(pair for pair in tags if pair[0] is Ann) if lifted else ()
        rule = cases.get(shape.cls)
        if rule is not None:
            owner = object()  # admits this node's children and binders in the rule's context only
            c = rule(_node_of(shape, values, owner))
            if c is not None:
                return _validate(c, owner, anns)
        return shape, values, witness(shape.cls).tags + anns

    return step


def compose_hom(rho1: HomCases, rho2: HomCases) -> HomCases:
    """Fuse two homomorphisms, ``rho2`` first, into one over ``rho1.target``:
    a class that ``rho2`` rewrites gets ``rho1`` applied to its rule's
    context, any other ``rho1``'s own rule or the re-tag.  The result is
    lifted when both tables are."""
    _table(rho1), _table(rho2)
    fused = {cls: _then(lambda c: app_hom(rho1, c), rule) for cls, rule in rho2.cases.items()}
    lifted = type(rho1) is type(rho2) is _LiftedCases
    return (_LiftedCases if lifted else HomCases)({**rho1.cases, **fused}, rho1.target)


def compose_alg_hom(phi: Callable, rho: HomCases) -> Cases:
    """Fuse an algebra after a homomorphism into one table of rules on bare
    constructors, so no annotation reaches ``phi``: a class that ``rho``
    rewrites folds its rule's context with ``phi``, and a summand of
    ``rho.target`` that ``rho`` re-tags goes to ``phi``'s own rule, or to
    ``phi`` of the node injected into ``rho.target`` when ``phi`` is no
    table.  Any other class raises ``SubsumptionError``, as when staged."""
    target = _table(rho).target
    # rho re-tags each summand of its target it has no rule for, and no other class
    if _bare(phi):
        retagged = {cls: phi.cases.get(cls, phi.default) for cls in target.summands}
    else:
        retagged = {cls: _then(phi, target.witness(cls).inj) for cls in target.summands}
    fused = {cls: _then(lambda c: free(phi, _identity, c), rule) for cls, rule in rho.cases.items()}
    return Cases({**retagged, **fused}, target.inj)


def _then(f: Callable, rule: Callable) -> Callable[[Any], Any]:
    # f of what rule makes of one constructor
    return lambda leaf: f(rule(leaf))


def identity_hom(target: Signature) -> HomCases:
    """Re-tag nodes into ``target``: the identity homomorphism when source
    and target agree, and the deep injection of terms over a sub-signature
    into a larger one otherwise."""
    return HomCases({}, target)


def lift_ann_hom(rho: HomCases) -> HomCases:
    """Lift a homomorphism to annotated signatures.

    The rule sees the source node without its annotation layers ``p1 ...
    pk``, wherever they sit among the sum tags, and every node that the
    rule built is put under ``p1 ... pk``, innermost first; a child or
    binder body that it placed as it got it, in a hole or not, stays as
    it is.  Multi-node rewrites (a sugared form expanding to several core
    nodes) thus spread the source annotations over their own output, and
    the lifted identity is the identity.
    """
    return _LiftedCases(_table(rho).cases, rho.target)


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
    return [
        (shape.name, next((ann for tag, ann in tags if tag is Ann and ann is not None), None))
        for shape, _, tags in _nodes(t.tree)
    ]
