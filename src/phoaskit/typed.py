"""A sorted core language whose evaluator has no stuck state.

Sorts are integers and arrows.  A sorted term is a core-language term
with one annotation layer on every node, holding that node's sort; a
bound-variable occurrence is a :class:`TVar`, which carries its binder's
sort.  Construction checks sorts, so the only representable terms are
well-sorted ones and the evaluator can dispense with value tags entirely:
integers evaluate to raw ints, lambdas to raw functions, and application
just applies.  The single failure left is the explicit error construct.

The host cannot carry the sort indices statically, so the checks run when
a term is built: ``t_app`` demands an arrow whose domain matches the
argument, ``t_plus`` demands integer operands, and a binder's body is
probed once with a sorted placeholder to determine the arrow sort.
Erasing sorts is :func:`~phoaskit.hom.strip_ann`, which yields an
ordinary core term with the same behaviour.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable

from .algebra import cata
from .hom import strip_ann
from .lang import CORE, App, Err, Lam, Lit, Plus
from .result import Failure, Result, Success
from .signature import Ann, Cases
from .term import In, Term, Var, inject

__all__ = [
    "INT", "ObjType", "SortMismatchError", "TArrow", "TInt", "TVar", "TypedTerm", "erase",
    "random_typed_term", "sort_of", "t_app", "t_err", "t_lam", "t_lit", "t_plus", "typed_demo", "typed_eval",
]


@dataclass(frozen=True)
class TInt:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TArrow:
    dom: "ObjType"
    cod: "ObjType"

    def __str__(self) -> str:
        return f"({self.dom} -> {self.cod})"


ObjType = TInt | TArrow
INT = TInt()


class SortMismatchError(TypeError):
    pass


@dataclass(frozen=True)
class TVar(Var):
    """A bound-variable occurrence that carries its binder's sort."""

    sort: ObjType


TypedTerm = Any  # a TVar, or a CORE preterm with a sort annotation on every node

_PROBE = object()


def sort_of(t: TypedTerm) -> ObjType:
    """A variable's sort, or the sort annotation around a term's head node."""
    if isinstance(t, TVar):
        return t.sort
    if isinstance(t, In) and type(t.node) is Ann and isinstance(t.node.ann, (TInt, TArrow)):
        return t.node.ann
    raise SortMismatchError(f"not a sorted term: {t!r}")


def t_lam(dom: ObjType, f: Callable[[TVar], TypedTerm]) -> In:
    """Typed binder; the body fixes the codomain sort."""
    cod = sort_of(f(TVar(_PROBE, dom)))
    return inject(Lam(lambda token: f(TVar(token, dom))), CORE, TArrow(dom, cod))


def t_app(fn: TypedTerm, arg: TypedTerm) -> In:
    fn_sort, arg_sort = sort_of(fn), sort_of(arg)
    if not isinstance(fn_sort, TArrow):
        raise SortMismatchError(f"applying a non-function of sort {fn_sort}")
    if fn_sort.dom != arg_sort:
        raise SortMismatchError(f"argument sort {arg_sort} does not match domain {fn_sort.dom}")
    return inject(App(fn, arg), CORE, fn_sort.cod)


def t_lit(n: int) -> In:
    return inject(Lit(n), CORE, INT)


def t_plus(lhs: TypedTerm, rhs: TypedTerm) -> In:
    if sort_of(lhs) != INT or sort_of(rhs) != INT:
        raise SortMismatchError("addition needs integer operands")
    return inject(Plus(lhs, rhs), CORE, INT)


def t_err(sort: ObjType) -> In:
    return inject(Err(), CORE, sort)


def _first_failure(*results: Result) -> Failure | None:
    return next((r for r in results if isinstance(r, Failure)), None)


# The carrier is a fallible raw value: an int, or a function from the
# domain's raw values to fallible codomain values.
_typed_eval_alg = Cases(
    {
        Lam: lambda n: Success(lambda v: n.body(Success(v))),
        App: lambda n: _first_failure(n.fn, n.arg) or n.fn.value(n.arg.value),
        Lit: lambda n: Success(n.value),
        Plus: lambda n: _first_failure(n.lhs, n.rhs) or Success(n.lhs.value + n.rhs.value),
        Err: lambda n: Failure("error"),
    }
)


def typed_eval(t: TypedTerm) -> Result:
    """Evaluate call by value into the sort-directed domain.

    Integer-sorted terms yield ints, arrow-sorted terms yield functions
    from the domain's values to fallible codomain values.  There is no
    "stuck" branch: sorts rule those states out at construction.
    """
    sort_of(t)
    return cata(_typed_eval_alg, Term(lambda: t))


def erase(t: TypedTerm) -> Term:
    """Forget the sorts, producing a closed core-language term."""
    sort_of(t)
    return strip_ann(Term(lambda: t))


_ARG_SORTS = (INT, TArrow(INT, INT))


def random_typed_term(
    rng: random.Random, sort: ObjType = INT, depth: int = 4, allow_err: bool = False
) -> TypedTerm:
    """A random well-sorted term of the requested sort.

    The draws make a recipe, a function from the occurrences in scope to a
    term, so a binder's body is drawn once and yields the same shape every
    time it is applied.  Everything goes through the checked constructors:
    an ill-sorted candidate would fail loudly here.
    """
    return _recipe(rng, sort, depth, (), allow_err)(())


def _recipe(
    rng: random.Random, sort: ObjType, depth: int, scope: tuple, allow_err: bool
) -> Callable[[tuple], TypedTerm]:
    # scope: the sorts of the enclosing binders, outermost first, which is
    # also the order of the occurrences the recipe is applied to
    matching = [i for i, s in enumerate(scope) if s == sort]
    if isinstance(sort, TArrow):
        if matching and rng.random() < 0.4:
            return itemgetter(rng.choice(matching))
        body = _recipe(rng, sort.cod, max(depth - 1, 0), scope + (sort.dom,), allow_err)
        return lambda env: t_lam(sort.dom, lambda v: body(env + (v,)))
    choices = ["lit"]
    if depth > 0:
        choices += ["plus", "plus", "app"]
    if matching:
        choices += ["var", "var"]
    if allow_err and depth > 0:
        choices.append("err")
    pick = rng.choice(choices)
    if pick == "lit":
        n = rng.randrange(0, 50)
        return lambda env: t_lit(n)
    if pick == "var":
        return itemgetter(rng.choice(matching))
    if pick == "err":
        return lambda env: t_err(sort)
    if pick == "plus":
        lhs = _recipe(rng, INT, depth - 1, scope, allow_err)
        rhs = _recipe(rng, INT, depth - 1, scope, allow_err)
        return lambda env: t_plus(lhs(env), rhs(env))
    dom = rng.choice(_ARG_SORTS)
    fn = _recipe(rng, TArrow(dom, sort), depth - 1, scope, allow_err)
    arg = _recipe(rng, dom, depth - 1, scope, allow_err)
    return lambda env: t_app(fn(env), arg(env))


def typed_demo() -> str:
    """Build the worked example and exercise the no-stuck-state claim."""
    example = t_app(t_lam(INT, lambda x: t_plus(x, x)), t_lit(2))
    outcome = typed_eval(example)
    lines = ["typed core language demo"]
    lines.append(f"  (\\x. x + x) 2  ==>  {outcome.value}")
    family_size = 100
    rng = random.Random(42)
    family = (random_typed_term(rng, INT, depth=4) for _ in range(family_size))
    failures = sum(isinstance(typed_eval(t), Failure) for t in family)
    lines.append(
        f"  error-free family: {family_size - failures}/{family_size} evaluated "
        "without failure"
    )
    bad = typed_eval(t_err(INT))
    lines.append(f'  error construct at int sort  ==>  failure "{bad.message}"')
    return "\n".join(lines)
