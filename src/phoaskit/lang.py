"""The demo language: six signatures and the passes over them.

The language is a lambda calculus with integers, addition, let bindings
and an error construct:

    e ::= \\x. e | x | e1 e2 | n | e1 + e2 | let x = e1 in e2 | error

``FULL`` is the assembled source signature; ``CORE`` drops ``Let``.
Desugaring rewrites ``let x = e1 in e2`` to ``(\\x. e2) e1`` and is given
twice: as a plain fold and as a homomorphism (the latter fuses with the
evaluator).  Constant folding and the call-by-value interpreter follow
the usual presentations; evaluation of the running example

    let x = 2 in (\\y. y + x) 3

yields ``Success(IntV(5))``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar

from .algebra import cata
from .hom import HomCases, TreeCases, app_term_hom, compose_alg_hom
from .result import Failure, Result, Success
from .signature import Cases, Node, Signature, Slot, dimap
from .term import Cxt, Hole, In, Term, Var, inject, project, smart_binder

__all__ = [
    "CORE", "FULL", "App", "Err", "FunV", "IntV", "Lam", "Let", "Lit", "NameStream", "Plus", "Value",
    "const_fold", "count_alg", "count_bound_var_uses", "desugar", "desugar_hom", "desugar_via_cata",
    "eval_alg", "eval_cbv", "eval_fused", "example_term", "fused_eval_alg",
    "i_app", "i_err", "i_lam", "i_let", "i_lit", "i_plus", "pretty",
]

@dataclass(frozen=True)
class Lam(Node):
    body: Callable[[Any], Any]

    SLOTS: ClassVar[tuple[Slot, ...]] = (Slot.contra("body"),)


@dataclass(frozen=True)
class App(Node):
    fn: Any
    arg: Any

    SLOTS: ClassVar[tuple[Slot, ...]] = (Slot.co("fn"), Slot.co("arg"))


@dataclass(frozen=True)
class Lit(Node):
    value: int

    SLOTS: ClassVar[tuple[Slot, ...]] = (Slot.static("value"),)


@dataclass(frozen=True)
class Plus(Node):
    lhs: Any
    rhs: Any

    SLOTS: ClassVar[tuple[Slot, ...]] = (Slot.co("lhs"), Slot.co("rhs"))


@dataclass(frozen=True)
class Err(Node):
    SLOTS: ClassVar[tuple[Slot, ...]] = ()


@dataclass(frozen=True)
class Let(Node):
    bound: Any
    body: Callable[[Any], Any]

    SLOTS: ClassVar[tuple[Slot, ...]] = (Slot.co("bound"), Slot.contra("body"))


FULL = Signature((Lam, App, Lit, Plus, Err, Let), name="Full")
CORE = Signature((Lam, App, Lit, Plus, Err), name="Core")


# Smart constructors.  Binder-taking ones insert the Var wrap, so body
# functions receive occurrences, never raw tokens.

def i_lam(f: Callable[[Cxt], Cxt], sig: Signature = FULL, ann: Any = None) -> Cxt:
    return inject(Lam(smart_binder(f)), sig, ann)


def i_app(fn: Cxt, arg: Cxt, sig: Signature = FULL, ann: Any = None) -> Cxt:
    return inject(App(fn, arg), sig, ann)


def i_lit(n: int, sig: Signature = FULL, ann: Any = None) -> Cxt:
    return inject(Lit(n), sig, ann)


def i_plus(lhs: Cxt, rhs: Cxt, sig: Signature = FULL, ann: Any = None) -> Cxt:
    return inject(Plus(lhs, rhs), sig, ann)


def i_err(sig: Signature = FULL, ann: Any = None) -> Cxt:
    return inject(Err(), sig, ann)


def i_let(bound: Cxt, f: Callable[[Cxt], Cxt], sig: Signature = FULL, ann: Any = None) -> Cxt:
    return inject(Let(bound, smart_binder(f)), sig, ann)


def example_term() -> Term:
    """``let x = 2 in (\\y. y + x) 3``, the running example."""
    return Term(
        lambda: i_let(i_lit(2), lambda x: i_app(i_lam(lambda y: i_plus(y, x)), i_lit(3)))
    )


class NameStream:
    """Infinite stream of printable variable names x1, x2, ..."""

    __slots__ = ("_n",)

    def __init__(self, n: int = 1):
        self._n = n

    @property
    def head(self) -> str:
        return f"x{self._n}"

    @property
    def tail(self) -> "NameStream":
        return NameStream(self._n + 1)


def _const(value):
    return lambda _stream: value


# Pretty printing.  The carrier is a function from the name stream to the
# rendered string; binders consume the stream head and print their body
# against the tail, while application and addition hand the same stream to
# both children (so sibling branches may reuse names, deliberately).

_pretty_alg = Cases(
    {
        Lam: lambda n: lambda xs: "(\\" + xs.head + ". " + n.body(_const(xs.head))(xs.tail) + ")",
        App: lambda n: lambda xs: "(" + n.fn(xs) + " " + n.arg(xs) + ")",
        Lit: lambda n: lambda xs: str(n.value),
        Plus: lambda n: lambda xs: "(" + n.lhs(xs) + " + " + n.rhs(xs) + ")",
        Err: lambda n: lambda xs: "error",
        Let: lambda n: lambda xs: "(let "
        + xs.head
        + " = "
        + n.bound(xs.tail)
        + " in "
        + n.body(_const(xs.head))(xs.tail)
        + ")",
    }
)


def pretty(t: Term) -> str:
    """Render a term over any sub-signature of the full language."""
    return cata(_pretty_alg, t)(NameStream(1))


# Desugaring, once as a fold and once as a homomorphism.

_desugar_alg = Cases(
    {Let: lambda n: i_app(i_lam(n.body, CORE), n.bound, CORE)},
    # any other node is rebuilt in CORE; binder slots get their Var wrap
    # back, since the carrier sits on both sides
    default=lambda leaf: In(CORE.inj(dimap(Var, lambda x: x, leaf))),
)


def desugar_via_cata(t: Term) -> Term:
    """Remove let bindings with a plain fold.

    Like :func:`desugar`, the result carries no source annotations.
    """
    return Term(lambda: cata(_desugar_alg, t))


def _desugar_let(leaf: Let) -> Cxt:
    lam = In(CORE.inj(Lam(lambda v: Hole(leaf.body(v)))))
    return In(CORE.inj(App(lam, Hole(leaf.bound))))


# Homomorphism form: ``let x = e1 in e2  ~>  (\\x. e2) e1``; every other
# constructor is re-tagged into the core signature.
desugar_hom = HomCases({Let: _desugar_let}, CORE)


def desugar(t: Term) -> Term:
    """Remove let bindings in one homomorphism pass.

    Source annotations are dropped: on ``parse_ann("let x = 1 in x + 2")``
    :func:`~phoaskit.hom.annotations` of the result starts ``[("App",
    None), ("Lam", None), ...]``.  To keep them, apply
    ``lift_ann_hom(desugar_hom)`` with :func:`~phoaskit.hom.app_term_hom`.
    """
    return app_term_hom(desugar_hom, t)


# Constant folding: an addition whose folded children are both literals
# collapses; the rule declines any other, which, like every other node, is
# re-tagged into the target untouched.

def const_fold(t: Term, sig: Signature = FULL) -> Term:
    """Collapse additions of two literals, bottom up, into ``sig``.

    Every node is rebuilt in ``sig`` without its source annotation.
    """
    w_lit = sig.witness(Lit)

    def fold_plus(n: Plus) -> Cxt | None:
        left, right = project(n.lhs, w_lit), project(n.rhs, w_lit)
        return None if left is None or right is None else i_lit(left.value + right.value, sig)

    return app_term_hom(TreeCases({Plus: fold_plus}, sig), t)


# Call-by-value evaluation.  Values are integers and fallible functions;
# the carrier is a fallible computation of a value.

@dataclass(frozen=True)
class IntV:
    value: int


@dataclass(frozen=True)
class FunV:
    fn: Callable[["Value"], Result]


Value = IntV | FunV


def _eval_lam(n: Lam) -> Result:
    return Success(FunV(lambda v: n.body(Success(v))))


def _eval_app(n: App) -> Result:
    fn = n.fn
    if isinstance(fn, Failure):
        return fn
    if not isinstance(fn.value, FunV):
        return Failure("stuck")
    arg = n.arg
    if isinstance(arg, Failure):
        return arg
    return fn.value.fn(arg.value)


def _eval_plus(n: Plus) -> Result:
    lhs = n.lhs
    if isinstance(lhs, Failure):
        return lhs
    rhs = n.rhs
    if isinstance(rhs, Failure):
        return rhs
    if isinstance(lhs.value, IntV) and isinstance(rhs.value, IntV):
        return Success(IntV(lhs.value.value + rhs.value.value))
    return Failure("stuck")


eval_alg = Cases(
    {
        Lam: _eval_lam,
        App: _eval_app,
        Lit: lambda n: Success(IntV(n.value)),
        Plus: _eval_plus,
        Err: lambda n: Failure("error"),
    }
)


def eval_cbv(t: Term) -> Result:
    """Evaluate a let-free term call by value.

    Applying a non-function or adding a non-integer fails with "stuck";
    the error construct fails with "error".
    """
    return cata(eval_alg, t)


fused_eval_alg = compose_alg_hom(eval_alg, desugar_hom)


def eval_fused(t: Term) -> Result:
    """Desugar and evaluate in a single traversal of the input term."""
    return cata(fused_eval_alg, t)


# Bound-variable occurrence counting: binder slots are applied to 1, so
# every use of the bound variable contributes one.

count_alg = Cases(
    {
        Lam: lambda n: n.body(1),
        App: lambda n: n.fn + n.arg,
        Lit: lambda n: 0,
        Plus: lambda n: n.lhs + n.rhs,
        Err: lambda n: 0,
        Let: lambda n: n.bound + n.body(1),
    }
)


def count_bound_var_uses(t: Term) -> int:
    return cata(count_alg, t)
