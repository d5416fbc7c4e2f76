"""Folds: plain, effectful, over contexts, and recursive projection."""
from __future__ import annotations

import random

import pytest

from conftest import ARITH, LIT_PLUS, arith_term
from phoaskit.algebra import (
    MissingCaseError,
    cata,
    cata_m,
    cata_pre,
    deep_project,
    free,
    node_count,
)
from phoaskit.hom import app_term_hom, identity_hom
from phoaskit.lang import (
    Err,
    Lit,
    NameStream,
    Plus,
    _pretty_alg,
    count_bound_var_uses,
    i_app,
    i_err,
    i_lam,
    i_lit,
    i_plus,
    pretty,
)
from phoaskit.names import alpha_eq
from phoaskit.result import Failure, Success
from phoaskit.signature import Ann, Cases, Inl, Inr, TraversalError
from phoaskit.surface import parse_ann
from phoaskit.term import Hole, Term, Var

sum_alg = Cases(
    {Lit: lambda n: n.value, Plus: lambda n: n.lhs + n.rhs, Err: lambda n: 0}
)


def test_cata_counts_bound_variable_uses():
    ident_term = Term(lambda: i_lam(lambda x: x))
    assert count_bound_var_uses(ident_term) == 1
    double = Term(lambda: i_app(i_lam(lambda x: i_plus(x, x)), i_lit(2)))
    assert count_bound_var_uses(double) == 2


def test_cata_pre_var_returns_the_carrier():
    assert cata_pre(sum_alg, Var(41)) == 41
    assert cata_pre(sum_alg, i_lit(5, ARITH)) == 5


def test_cata_is_cata_pre_of_the_instantiated_builder():
    t = Term(lambda: i_plus(i_lit(1), i_lit(2)))
    assert cata(sum_alg, t) == cata_pre(sum_alg, t.preterm())


def test_cata_instantiates_builder_once_and_visits_every_node():
    builds = []
    visits = []

    def build():
        builds.append(1)
        return i_plus(i_plus(i_lit(1), i_lit(2)), i_lit(3))

    def counting(node):
        visits.append(1)
        return sum_alg(node)

    t = Term(build)
    assert len(builds) == 1  # construction runs the builder once
    assert cata(counting, t) == 6
    t.preterm()
    assert len(builds) == 1
    assert len(visits) == node_count(t) == 5


def test_missing_case_is_reported():
    phi = Cases({Lit: lambda n: n.value})
    with pytest.raises(MissingCaseError):
        cata(phi, Term(lambda: i_plus(i_lit(1), i_lit(2))))


def test_a_table_fold_hands_its_rules_bare_constructors(monkeypatch):
    import phoaskit.term as term_mod

    t = parse_ann("let x = 1 + 2 in (\\y. y + x) 3 + error")
    rewraps, seen = [], []
    rewrap = term_mod._rewrap
    monkeypatch.setattr(term_mod, "_rewrap", lambda node, tags: rewraps.append(node) or rewrap(node, tags))

    def recording(rule):
        return lambda leaf: seen.append(type(leaf)) or rule(leaf)

    phi = Cases({cls: recording(rule) for cls, rule in _pretty_alg.cases.items()})
    assert isinstance(phi, Cases)
    assert cata(phi, t)(NameStream(1)) == pretty(t)
    assert rewraps == []
    assert len(seen) == node_count(t) and not {Ann, Inl, Inr} & set(seen)


def test_cata_pre_refuses_holes():
    with pytest.raises(TypeError):
        cata_pre(sum_alg, Hole(i_lit(1, ARITH)))


def test_cata_m_of_lifted_pure_algebra_is_pure_cata():
    rng = random.Random(42)
    for _ in range(200):
        t = arith_term(rng, 4)
        assert cata_m(lambda n: Success(sum_alg(n)), t) == Success(cata(sum_alg, t))


def test_cata_m_sequences_left_to_right():
    phi = Cases(
        {
            Lit: lambda n: Failure(f"big:{n.value}") if n.value >= 10 else Success(n.value),
            Plus: lambda n: Success(n.lhs + n.rhs),
            Err: lambda n: Success(0),
        }
    )

    t = Term(lambda: i_plus(i_lit(11, ARITH), i_lit(12, ARITH), ARITH))
    assert cata_m(phi, t) == Failure("big:11")
    nested = Term(
        lambda: i_plus(
            i_plus(i_lit(1, ARITH), i_lit(13, ARITH), ARITH), i_lit(14, ARITH), ARITH
        )
    )
    assert cata_m(phi, nested) == Failure("big:13")


def test_cata_m_refuses_binders():
    t = Term(lambda: i_lam(lambda x: x))
    with pytest.raises(TraversalError):
        cata_m(lambda n: Success(0), t)


def test_free_on_holes_vars_and_nodes():
    hm = lambda b: b * 100
    assert free(sum_alg, hm, Hole(3)) == 300
    assert free(sum_alg, hm, Var(9)) == 9
    ctx = i_plus(Hole(1), i_lit(5, ARITH), ARITH)
    assert free(sum_alg, hm, ctx) == 105


def test_deep_project_identity_on_matching_signature():
    rng = random.Random(1)
    t = arith_term(rng, 4)
    again = deep_project(t, ARITH)
    assert again is not None
    assert alpha_eq(again, t)


def test_deep_project_absent_when_any_node_is_outside():
    t = Term(lambda: i_plus(i_lit(1, ARITH), i_err(ARITH), ARITH))
    assert deep_project(t, LIT_PLUS) is None


def test_deep_project_present_when_all_nodes_project():
    t = Term(
        lambda: i_plus(
            i_plus(i_lit(1, ARITH), i_lit(2, ARITH), ARITH), i_lit(3, ARITH), ARITH
        )
    )
    small = deep_project(t, LIT_PLUS)
    assert small is not None
    # every node of the result lives in the smaller signature
    assert cata(Cases({Lit: lambda n: 1, Plus: lambda n: 1 + n.lhs + n.rhs}), small) == 5


def test_deep_project_requires_a_binder_free_source():
    t = Term(lambda: i_lam(lambda x: x))
    with pytest.raises(TraversalError):
        deep_project(t, LIT_PLUS)


def test_folds_are_safe_to_run_in_parallel():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(3)
    terms = [arith_term(rng, 5) for _ in range(24)]
    serial = [cata(sum_alg, t) for t in terms]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda t: cata(sum_alg, t), terms))
    assert parallel == serial


def test_deep_project_then_reinject_is_alpha_identity():
    rng = random.Random(2)
    for _ in range(50):
        t = arith_term(rng, 4)
        small = deep_project(t, ARITH)
        assert small is not None
        back = app_term_hom(identity_hom(ARITH), small)
        assert alpha_eq(back, t)
