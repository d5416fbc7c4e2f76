"""The sorted core language and its tagless evaluator."""
from __future__ import annotations

import hashlib
import random

import pytest

from phoaskit.lang import FunV, IntV, eval_cbv
from phoaskit.names import struct_show
from phoaskit.result import Failure, Result, Success
from phoaskit.typed import (
    INT,
    ObjType,
    SortMismatchError,
    TArrow,
    erase,
    random_typed_term,
    sort_of,
    t_app,
    t_err,
    t_lam,
    t_lit,
    t_plus,
    typed_demo,
    typed_eval,
)


_SAMPLE_INTS = (0, 1, -1, 2, 7, -3, 10, 42)


def _canonical(sort: ObjType, k: int):
    """Paired typed/untyped argument values used to probe functions."""
    if sort == INT:
        return k, IntV(k)
    sem, val = _canonical(sort.cod, k)
    return (lambda _v: Success(sem)), FunV(lambda _v: Success(val))


def results_agree(sort: ObjType, typed_r: Result, untyped_r: Result) -> bool:
    """Extensional agreement between the two evaluators' results."""
    if isinstance(typed_r, Failure) or isinstance(untyped_r, Failure):
        return typed_r == untyped_r
    return _values_agree(sort, typed_r.value, untyped_r.value)


def _values_agree(sort: ObjType, sem, val) -> bool:
    if sort == INT:
        return isinstance(val, IntV) and sem == val.value
    if not isinstance(val, FunV):
        return False
    for k in _SAMPLE_INTS:
        a_sem, a_val = _canonical(sort.dom, k)
        if not results_agree(sort.cod, sem(a_sem), val.fn(a_val)):
            return False
    return True


def test_typed_eval_of_the_worked_example():
    term = t_app(t_lam(INT, lambda x: t_plus(x, x)), t_lit(2))
    assert sort_of(term) == INT
    assert typed_eval(term) == Success(4)


def test_typed_eval_literal_and_error():
    assert typed_eval(t_lit(0)) == Success(0)
    assert typed_eval(t_err(INT)) == Failure("error")
    assert typed_eval(t_err(TArrow(INT, INT))) == Failure("error")


def test_sorts_are_checked_at_construction():
    with pytest.raises(SortMismatchError):
        t_app(t_lit(1), t_lit(2))
    with pytest.raises(SortMismatchError):
        t_app(t_lam(INT, lambda x: x), t_lam(INT, lambda x: x))
    with pytest.raises(SortMismatchError):
        t_plus(t_lit(1), t_lam(INT, lambda x: x))
    with pytest.raises(SortMismatchError):
        t_lam(INT, lambda x: t_plus(x, t_lam(INT, lambda y: y)))


def test_unsorted_core_terms_are_rejected():
    from phoaskit.lang import CORE, i_lit

    with pytest.raises(SortMismatchError):
        t_plus(i_lit(1, CORE), t_lit(2))
    with pytest.raises(TypeError):
        typed_eval(i_lit(1, CORE))
    with pytest.raises(TypeError):
        erase(i_lit(1, CORE))


def test_higher_order_sorts():
    twice = t_lam(
        TArrow(INT, INT), lambda f: t_lam(INT, lambda x: t_app(f, t_app(f, x)))
    )
    assert sort_of(twice) == TArrow(TArrow(INT, INT), TArrow(INT, INT))
    applied = t_app(t_app(twice, t_lam(INT, lambda x: t_plus(x, t_lit(3)))), t_lit(1))
    assert typed_eval(applied) == Success(7)


def test_application_of_a_failing_function_propagates():
    assert typed_eval(t_app(t_err(TArrow(INT, INT)), t_lit(1))) == Failure("error")
    assert typed_eval(t_app(t_lam(INT, lambda x: x), t_err(INT))) == Failure("error")


def test_erasure_coherence_at_function_domain_sorts():
    rng = random.Random(46)
    sort = TArrow(TArrow(INT, INT), INT)
    for _ in range(25):
        term = random_typed_term(rng, sort, depth=3)
        assert results_agree(sort, typed_eval(term), eval_cbv(erase(term)))


def test_error_free_family_never_fails():
    rng = random.Random(42)
    for _ in range(100):
        term = random_typed_term(rng, INT, depth=4)
        assert isinstance(typed_eval(term), Success)


def test_terms_with_err_fail_with_error_only():
    rng = random.Random(43)
    seen_failure = False
    for _ in range(200):
        term = random_typed_term(rng, INT, depth=4, allow_err=True)
        out = typed_eval(term)
        if isinstance(out, Failure):
            assert out.message == "error"
            seen_failure = True
    assert seen_failure


def test_erasure_coherence_on_generated_terms():
    rng = random.Random(44)
    for _ in range(100):
        term = random_typed_term(rng, INT, depth=4)
        assert results_agree(INT, typed_eval(term), eval_cbv(erase(term)))
    for _ in range(40):
        sort = TArrow(INT, INT)
        term = random_typed_term(rng, sort, depth=3)
        assert results_agree(sort, typed_eval(term), eval_cbv(erase(term)))


def test_results_agree_rejects_results_that_differ():
    ident = Success(lambda v: Success(v))
    assert results_agree(INT, Success(3), Success(IntV(3)))
    assert not results_agree(INT, Success(3), Success(IntV(4)))
    assert not results_agree(INT, Success(3), Success(FunV(lambda v: Success(v))))
    assert results_agree(TArrow(INT, INT), ident, Success(FunV(lambda v: Success(v))))
    assert not results_agree(TArrow(INT, INT), ident, Success(IntV(1)))
    assert not results_agree(TArrow(INT, INT), ident, Success(FunV(lambda v: Success(IntV(0)))))
    assert not results_agree(INT, Failure("error"), Success(IntV(0)))


def test_erasure_coherence_with_errors():
    rng = random.Random(45)
    for _ in range(100):
        term = random_typed_term(rng, INT, depth=4, allow_err=True)
        assert results_agree(INT, typed_eval(term), eval_cbv(erase(term)))


def test_typed_demo_report():
    report = typed_demo()
    assert "4" in report
    assert "100/100" in report
    assert 'failure "error"' in report


# Seeded draws of the generator, pinned by digest: the erased structure of
# every term and what it evaluates to (the result itself at the integer
# sort, its kind at arrow sorts).  Reads no sort, so it holds for any
# representation of sorted terms.
GENERATOR_DIGEST = "5232f75fca06c448b1c0c3809b819e8e852fd0a988d95b7dbcc749bc34da09b8"
_DIGEST_SORTS = (INT, TArrow(INT, INT), TArrow(TArrow(INT, INT), INT))


def test_generator_and_evaluator_are_pinned_on_seeded_draws():
    digest = hashlib.sha256()
    draws = 0
    for seed in range(40, 60):
        for i, sort in enumerate(_DIGEST_SORTS):
            for allow_err in (False, True):
                rng = random.Random(seed * 10 + i * 2 + allow_err)
                for _ in range(15):
                    term = random_typed_term(rng, sort, depth=4, allow_err=allow_err)
                    out = typed_eval(term)
                    digest.update(struct_show(erase(term)).encode() + b"\n")
                    shown = repr(out) if sort == INT else type(out).__name__
                    digest.update(shown.encode() + b"\n")
                    draws += 1
    assert draws == 1800
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_typed_demo_text_is_pinned():
    assert typed_demo() == (
        "typed core language demo\n"
        "  (\\x. x + x) 2  ==>  4\n"
        "  error-free family: 100/100 evaluated without failure\n"
        '  error construct at int sort  ==>  failure "error"'
    )
