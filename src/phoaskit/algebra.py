"""Algebras and the folds they induce.

An algebra collapses one signature node whose slots already carry results
into a result:

    cata phi: In(t)  ->  phi(fmap_co(cata phi, t))
              Var(x) ->  x

Variables evaluate to whatever carrier value their binder was applied to,
so a fold replays the term's validated tree at the carrier type.  The
effectful variant ``cata_m`` sequences the children's results before the
algebra runs and is therefore restricted to binder-free signatures.
"""
from __future__ import annotations

from typing import Any, Callable

from .result import Failure, Result, Success
from .signature import Cases, MissingCaseError, Signature, disequence, fmap_co
from .term import Cxt, In, Term, Var, _nodes, replay
del annotations  # the __future__ feature, which a star import would export


def cata_pre(phi: Callable, c: Cxt) -> Any:
    """Fold a preterm whose variable type is already the carrier."""
    return free(phi, _no_hole, c)


def _no_hole(payload: Any) -> Any:
    raise TypeError("cata_pre folds hole-free preterms; use free for contexts")


def cata(phi: Callable, t: Term) -> Any:
    """Fold a closed term by replaying its validated tree at the carrier."""
    return replay(phi, t.tree)


def free(phi: Callable, hole_fn: Callable, c: Cxt) -> Any:
    """Fold a context, mapping hole payloads into the carrier.

    ``In`` nodes go through the algebra after their children are folded,
    variables are carrier values, and ``Hole(h)`` becomes ``hole_fn(h)``.
    """
    if isinstance(c, In):
        return phi(fmap_co(lambda child: free(phi, hole_fn, child), c.node))
    if isinstance(c, Var):
        return c.token
    return hole_fn(c.payload)


def cata_m(phi_m: Callable[[Any], Result], t: Term) -> Result:
    """Effectful fold over a binder-free term, a :func:`cata` of its stored tree.

    Children's effects run left to right in slot order via ``disequence``;
    the first failure aborts the fold.  Signatures with binder slots (any
    contravariant slot) raise :class:`~phoaskit.signature.TraversalError`.
    """

    def phi(node) -> Result:
        seq = disequence(node)
        return seq if isinstance(seq, Failure) else phi_m(seq.value)

    return cata(phi, t)


def deep_project(t: Term, target: Signature) -> Term | None:
    """Recursively re-tag a term into a smaller signature.

    Present exactly when every node's constructor is a summand of
    ``target``; the result is the same term modulo injection paths.  The
    source term must be binder-free (this is an effectful fold).
    """

    def retag(leaf) -> Result:
        w = target.find(type(leaf))
        if w is None:
            return Failure(f"{type(leaf).__name__} is not a summand of {target.name}")
        return Success(In(w.inj(leaf)))

    out = cata_m(Cases({}, retag), t)
    return None if isinstance(out, Failure) else Term(lambda: out.value)


def node_count(t: Term) -> int:
    """Number of constructor nodes, counting each binder body once."""
    return sum(1 for _ in _nodes(t.tree))
