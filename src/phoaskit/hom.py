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
for into its target signature.  ``app_hom``, ``app_term_hom`` and
``compose_alg_hom`` send such a node, its slots already mapped, straight
to ``In(target.inj(leaf))`` or ``phi(target.inj(leaf))``, skipping the
context of holes that the general path builds and merges away again;
other callables take that path.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Callable

from .algebra import cata, free
from .signature import Ann, Signature, fmap_co, leaf_of, map_slots, split_ann, unwrap_node
from .term import Cxt, Hole, In, Term, Var, app_cxt, replay


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


def _dispatch(rho: Callable[[Any], Cxt], retag: Callable, merge: Callable) -> Callable:
    # one node, its slots already mapped: a HomCases sends a constructor it has
    # no rule for to retag(target.inj(leaf)), every other context goes to merge
    if not isinstance(rho, HomCases):
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

    The source's stored tree is folded once (:func:`~phoaskit.term.replay`),
    one Python frame per covariant level.
    """
    return Term(lambda: replay(_dispatch(rho, In, app_cxt), t.tree, Var))


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
    identity.
    """

    def lifted(node) -> Cxt:
        node, anns = split_ann(node)
        return _annotate(rho(node), anns) if anns else rho(node)

    return lifted


def _annotate(c: Cxt, anns: list) -> Cxt:
    if isinstance(c, In):
        node = fmap_co(lambda child: _annotate(child, anns), c.node)
        for ann in anns:
            node = Ann(node, ann)
        return In(node)
    return c


def strip_ann(t: Term) -> Term:
    """Forget every annotation layer, preserving structure and sum tags."""
    return Term(lambda: replay(lambda node: In(split_ann(node)[0]), t.tree, Var))


def annotations(t: Term) -> list[tuple[str, Any]]:
    """Preorder list of ``(constructor name, annotation)`` pairs.

    A node under several ``Ann`` layers reports the innermost one, the
    annotation closest to the constructor; a node with none reports ``None``.
    """

    def phi(node) -> tuple:
        # the node's pair, then its slots' results: None for variables and payloads
        leaf, _, ann = unwrap_node(node)
        slots = map_slots(leaf, _identity, lambda body: body(None), lambda _: None)
        return ((type(leaf).__name__, ann), *slots)

    out, stack = [], [cata(phi, t)]
    while stack:  # preorder, without a Python frame per level
        item = stack.pop()
        if item is not None:
            out.append(item[0])
            stack.extend(reversed(item[1:]))
    return out
