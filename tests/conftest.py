"""Shared generators and comparison helpers.

Corpus terms are generated as well-scoped named trees (fixed seed, depth
bounded) and converted through the surface conversion path, so every
generated term is closed by construction.  Alpha-variants rename the
binders of the same tree consistently.
"""
from __future__ import annotations

import random

import pytest

from phoaskit.lang import Err, FunV, IntV, Lit, Plus, i_err, i_lit, i_plus
from phoaskit.result import Failure
from phoaskit.signature import Signature, SlotKind, _peel
from phoaskit.surface import (
    NApp,
    NErr,
    NLam,
    NLet,
    NLit,
    NPlus,
    NVar,
    SrcPos,
    term_of_named,
)
from phoaskit.term import Term

SEED = 42
CASES = 200


def random_named(rng: random.Random, depth: int, scope: tuple[str, ...] = ()):
    """A random closed named tree using every construct of the language."""
    pos = SrcPos(1, rng.randrange(1, 10_000))
    choices = ["lit", "lit"]
    if scope:
        choices += ["var", "var", "var"]
    if depth > 0:
        choices += ["plus", "plus", "app", "app", "lam", "lam", "let", "let", "err"]
    else:
        choices += ["err"]
    pick = rng.choice(choices)
    if pick == "lit":
        return NLit(rng.randrange(0, 30), pos)
    if pick == "err":
        return NErr(pos)
    if pick == "var":
        return NVar(rng.choice(scope), pos)
    if pick == "plus":
        return NPlus(
            random_named(rng, depth - 1, scope),
            random_named(rng, depth - 1, scope),
            pos,
        )
    if pick == "app":
        return NApp(
            random_named(rng, depth - 1, scope),
            random_named(rng, depth - 1, scope),
            pos,
        )
    name = f"v{len(scope)}{rng.randrange(10)}"
    while name in scope:
        name += "x"
    if pick == "lam":
        return NLam(name, random_named(rng, depth - 1, scope + (name,)), pos)
    return NLet(
        name,
        random_named(rng, depth - 1, scope),
        random_named(rng, depth - 1, scope + (name,)),
        pos,
    )


def rename_binders(ast, rng: random.Random, env: dict[str, str] | None = None):
    """A consistent renaming of every binder: an alpha-variant."""
    env = env or {}
    match ast:
        case NVar(name, pos):
            return NVar(env.get(name, name), pos)
        case NLit(_, _) | NErr(_):
            return ast
        case NPlus(lhs, rhs, pos):
            return NPlus(rename_binders(lhs, rng, env), rename_binders(rhs, rng, env), pos)
        case NApp(fn, arg, pos):
            return NApp(rename_binders(fn, rng, env), rename_binders(arg, rng, env), pos)
        case NLam(name, body, pos):
            fresh = f"r{rng.randrange(1_000_000)}"
            return NLam(fresh, rename_binders(body, rng, {**env, name: fresh}), pos)
        case NLet(name, bound, body, pos):
            fresh = f"r{rng.randrange(1_000_000)}"
            return NLet(
                fresh,
                rename_binders(bound, rng, env),
                rename_binders(body, rng, {**env, name: fresh}),
                pos,
            )
    raise TypeError(ast)


def make_corpus(n: int = CASES, depth: int = 5, seed: int = SEED) -> list[Term]:
    rng = random.Random(seed)
    return [term_of_named(random_named(rng, depth)) for _ in range(n)]


@pytest.fixture(scope="session")
def corpus() -> list[Term]:
    return make_corpus()


@pytest.fixture(scope="session")
def named_corpus():
    rng = random.Random(SEED)
    return [random_named(rng, 5) for _ in range(CASES)]


@pytest.fixture(scope="session")
def alpha_pairs(named_corpus):
    """(term, alpha-variant) pairs over the named corpus."""
    rng = random.Random(SEED + 1)
    return [
        (term_of_named(ast), term_of_named(rename_binders(ast, rng)))
        for ast in named_corpus
    ]


@pytest.fixture(scope="session")
def ann_corpus(corpus):
    """Annotated corpus with genuine source positions: reparse the printout."""
    from phoaskit.lang import pretty
    from phoaskit.surface import parse_ann

    return [parse_ann(pretty(t)) for t in corpus]


# small binder-free signatures used throughout the suite
ARITH = Signature((Lit, Plus, Err), name="Arith")
LIT_PLUS = Signature((Lit, Plus), name="LitPlus")


def random_arith(rng: random.Random, depth: int, sig: Signature = ARITH, err: bool = True):
    """A random binder-free preterm over the arithmetic signature."""
    if depth == 0 or rng.random() < 0.3:
        if err and rng.random() < 0.15:
            return i_err(sig)
        return i_lit(rng.randrange(0, 50), sig)
    return i_plus(
        random_arith(rng, depth - 1, sig, err),
        random_arith(rng, depth - 1, sig, err),
        sig,
    )


def arith_term(rng: random.Random, depth: int, sig: Signature = ARITH, err: bool = True) -> Term:
    """Closed term over the arithmetic signature.

    A term keeps the tree its builder returned at construction, and the
    builder runs only then, so it hands back this one generated instance.
    """
    pre = random_arith(rng, depth, sig, err)
    return Term(lambda: pre)


SAMPLE_ARGS = (0, 1, -1, 2, 7, -3, 10, 42)


def results_equivalent(r1, r2, depth: int = 3) -> bool:
    """Result equality with functions compared on sampled integer values."""
    if isinstance(r1, Failure) or isinstance(r2, Failure):
        return r1 == r2
    return values_equivalent(r1.value, r2.value, depth)


def values_equivalent(v1, v2, depth: int = 3) -> bool:
    if isinstance(v1, IntV) and isinstance(v2, IntV):
        return v1 == v2
    if isinstance(v1, FunV) and isinstance(v2, FunV):
        if depth == 0:
            return True
        return all(
            results_equivalent(v1.fn(IntV(k)), v2.fn(IntV(k)), depth - 1)
            for k in SAMPLE_ARGS
        )
    return False


def nodes_equal_extensional(n1, n2, args=SAMPLE_ARGS) -> bool:
    """Slot-by-slot node equality; function slots compared on sampled args."""
    leaf1, tags1 = _peel(n1)
    leaf2, tags2 = _peel(n2)
    if type(leaf1) is not type(leaf2) or tags1 != tags2:
        return False
    for slot in leaf1.SLOTS:
        v1 = getattr(leaf1, slot.name)
        v2 = getattr(leaf2, slot.name)
        if slot.kind is SlotKind.CONTRAVARIANT:
            if any(v1(a) != v2(a) for a in args):
                return False
        elif v1 != v2:
            return False
    return True
