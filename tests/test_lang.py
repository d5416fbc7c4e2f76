"""The language passes: printing, desugaring, folding, evaluation."""
from __future__ import annotations

import sys

import pytest
from conftest import results_equivalent
from phoaskit.lang import (
    CORE,
    FunV,
    IntV,
    const_fold,
    count_bound_var_uses,
    desugar,
    desugar_via_cata,
    eval_cbv,
    eval_fused,
    example_term,
    i_app,
    i_err,
    i_lam,
    i_let,
    i_lit,
    i_plus,
    pretty,
)
from phoaskit.hom import annotations
from phoaskit.names import alpha_eq, struct_show
from phoaskit.result import Failure, Success
from phoaskit.signature import SubsumptionError
from phoaskit.surface import parse
from phoaskit.term import Term


def test_pretty_golden_string():
    assert pretty(example_term()) == "(let x1 = 2 in ((\\x2. (x2 + x1)) 3))"


def test_name_stream_heads_are_pairwise_distinct():
    from phoaskit.lang import NameStream

    stream = NameStream(1)
    heads = []
    for _ in range(40):
        heads.append(stream.head)
        stream = stream.tail
    assert len(set(heads)) == 40
    assert heads[0] == "x1" and heads[39] == "x40"


def test_pretty_literal_is_bare():
    assert pretty(Term(lambda: i_lit(7))) == "7"


def test_pretty_siblings_share_the_name_stream():
    t = Term(lambda: i_app(i_lam(lambda a: a), i_lam(lambda b: b)))
    assert pretty(t) == "((\\x1. x1) (\\x1. x1))"


def test_pretty_error_and_plus():
    t = Term(lambda: i_plus(i_lit(0), i_err()))
    assert pretty(t) == "(0 + error)"


def test_desugar_via_cata_matches_hand_desugaring():
    hand = Term(
        lambda: i_app(
            i_lam(
                lambda x: i_app(i_lam(lambda y: i_plus(y, x, CORE), CORE), i_lit(3, CORE), CORE),
                CORE,
            ),
            i_lit(2, CORE),
            CORE,
        )
    )
    assert alpha_eq(desugar_via_cata(example_term()), hand)


def test_desugar_of_let_free_term_is_identity():
    t = Term(lambda: i_app(i_lam(lambda x: i_plus(x, i_lit(1, CORE), CORE), CORE), i_lit(2, CORE), CORE))
    assert alpha_eq(desugar_via_cata(t), t)
    assert alpha_eq(desugar(t), t)


def test_desugar_output_prints_without_let(corpus):
    for t in corpus[:50]:
        assert "let" not in pretty(desugar(t))


def test_desugar_removes_every_let_node(corpus):
    for t in corpus:
        assert "Let" not in [name for name, _ in annotations(desugar(t))]


def test_desugar_forms_agree(corpus):
    for t in corpus:
        assert alpha_eq(desugar(t), desugar_via_cata(t))


def test_desugar_of_literal_is_alpha_identity():
    assert alpha_eq(desugar(Term(lambda: i_lit(1))), Term(lambda: i_lit(1, CORE)))


def test_desugar_preserves_semantics(corpus):
    for t in corpus:
        assert results_equivalent(eval_cbv(desugar(t)), eval_fused(t))


def test_const_fold_collapses_literal_addition():
    t = Term(lambda: i_plus(i_lit(1), i_lit(2)))
    assert alpha_eq(const_fold(t), Term(lambda: i_lit(3)))


def test_const_fold_under_a_binder_stops_at_variables():
    t = Term(lambda: i_lam(lambda x: i_plus(i_plus(i_lit(1), i_lit(2)), x)))
    want = Term(lambda: i_lam(lambda x: i_plus(i_lit(3), x)))
    assert alpha_eq(const_fold(t), want)


def test_const_fold_without_additions_is_identity():
    t = Term(lambda: i_lam(lambda x: x))
    assert alpha_eq(const_fold(t), t)


def test_const_fold_is_idempotent(corpus):
    for t in corpus[:60]:
        once = const_fold(t)
        assert alpha_eq(const_fold(once), once)


def test_const_fold_preserves_semantics(corpus):
    for t in corpus:
        assert results_equivalent(
            eval_cbv(desugar(const_fold(t))), eval_cbv(desugar(t))
        )


def test_const_fold_works_on_the_core_signature():
    t = Term(lambda: i_plus(i_plus(i_lit(1, CORE), i_lit(2, CORE), CORE), i_lit(4, CORE), CORE))
    assert alpha_eq(const_fold(t, CORE), Term(lambda: i_lit(7, CORE)))


def test_const_fold_into_core_refuses_a_let():
    with pytest.raises(SubsumptionError, match="^Let is not a summand of Core$"):
        const_fold(parse("let x = 1 + 2 in x"), CORE)


def test_const_fold_of_10_000_term_chains():
    # no Python frame per level: both chains are ten times the recursion limit deep
    chain = parse(" + ".join(["1"] * 10_000))
    folded = const_fold(chain)
    assert annotations(folded) == [("Lit", None)]
    assert pretty(folded) == "10000"
    open_chain = parse("\\x. " + " + ".join(["x"] + ["1"] * 9_999))
    # the Lam, 9999 additions and 9999 literals; an occurrence of x is no node
    assert len(annotations(const_fold(open_chain))) == 1 + 9_999 + 9_999


def test_eval_golden_results():
    assert eval_cbv(desugar(example_term())) == Success(IntV(5))
    assert eval_cbv(Term(lambda: i_plus(i_lit(0, CORE), i_err(CORE)))) == Failure("error")
    lam = lambda: i_lam(lambda x: x, CORE)
    assert eval_cbv(Term(lambda: i_plus(i_lit(0, CORE), lam()))) == Failure("stuck")


def test_eval_checks_the_function_before_the_argument():
    t = Term(lambda: i_app(i_lit(0, CORE), i_err(CORE), CORE))
    assert eval_cbv(t) == Failure("stuck")


def test_eval_error_propagates_left_first():
    t = Term(lambda: i_plus(i_err(CORE), i_lam(lambda x: x, CORE), CORE))
    assert eval_cbv(t) == Failure("error")


def test_eval_lambda_yields_a_function_value():
    out = eval_cbv(Term(lambda: i_lam(lambda x: i_plus(x, i_lit(1, CORE), CORE), CORE)))
    assert isinstance(out, Success) and isinstance(out.value, FunV)
    assert out.value.fn(IntV(4)) == Success(IntV(5))


def test_eval_fused_golden_and_error():
    assert eval_fused(example_term()) == Success(IntV(5))
    assert eval_fused(Term(lambda: i_err())) == Failure("error")


def test_eval_fused_agrees_with_staged_on_corpus(corpus):
    for t in corpus:
        assert results_equivalent(eval_fused(t), eval_cbv(desugar(t)))


def test_count_bound_var_uses_examples():
    assert count_bound_var_uses(Term(lambda: i_lam(lambda x: i_plus(x, x)))) == 2
    assert count_bound_var_uses(Term(lambda: i_lit(5))) == 0
    assert count_bound_var_uses(example_term()) == 2
    letter = Term(lambda: i_let(i_lit(1), lambda x: i_plus(x, i_plus(x, x))))
    assert count_bound_var_uses(letter) == 3


def test_long_left_nested_sum_folds_under_the_default_recursion_limit():
    def chain():
        c = i_lit(1)
        for _ in range(500):
            c = i_plus(c, i_lit(1))
        return c

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = Term(chain)
        assert eval_cbv(t) == Success(IntV(501))
        assert eval_cbv(desugar(t)) == Success(IntV(501))
        assert pretty(t) == "(" * 500 + "1" + " + 1)" * 500
        shown = "Plus (" * 499 + "Plus (Lit 1) (Lit 1)" + ") (Lit 1)" * 499
        assert struct_show(t) == shown
        assert alpha_eq(t, Term(chain))
    finally:
        sys.setrecursionlimit(limit)
