"""Evaluators and constant folding against an independent reference.

``perfbench/ref.py`` evaluates, desugars, folds and prints plain tuple
trees and shares no code with the library, so it checks ``eval_cbv``,
``eval_fused``, the sorted evaluator and ``const_fold`` from outside,
where comparing fused against staged evaluation could not: both of those
share ``eval_alg``.
"""
from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from conftest import random_named

from phoaskit.lang import CORE, FunV, IntV, const_fold, desugar, eval_cbv, eval_fused, pretty
from phoaskit.result import Failure
from phoaskit.surface import NApp, NErr, NLam, NLet, NLit, NPlus, NVar, parse_named, term_of_named
from phoaskit.typed import INT, TArrow, erase, random_typed_term, typed_eval

_REF_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "ref.py"
_spec = importlib.util.spec_from_file_location("perfbench_ref", _REF_PATH)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

ARGS = (0, 7)


def to_ref(ast):
    """The reference's tuple form of a named tree."""
    match ast:
        case NVar(name, _):
            return ("var", name)
        case NLit(value, _):
            return ("lit", value)
        case NErr(_):
            return ("err",)
        case NLam(name, body, _):
            return ("lam", name, to_ref(body))
        case NApp(fn, arg, _):
            return ("app", to_ref(fn), to_ref(arg))
        case NPlus(lhs, rhs, _):
            return ("plus", to_ref(lhs), to_ref(rhs))
        case NLet(name, bound, body, _):
            return ("let", name, to_ref(bound), to_ref(body))
    raise TypeError(ast)


def ref_outcome(value, depth: int = 2):
    """An int, a failure message, or a closure's outcomes on ``ARGS``."""
    if isinstance(value, ref.Fail):
        return ("fail", value.message)
    if isinstance(value, ref.Closure):
        if depth == 0:
            return ("fun",)
        apply = lambda k: ref.evaluate(value.body, {**value.env, value.name: k})
        return ("fun",) + tuple(ref_outcome(apply(k), depth - 1) for k in ARGS)
    return ("int", value)


def untyped_outcome(result, depth: int = 2):
    if isinstance(result, Failure):
        return ("fail", result.message)
    value = result.value
    if isinstance(value, FunV):
        if depth == 0:
            return ("fun",)
        return ("fun",) + tuple(untyped_outcome(value.fn(IntV(k)), depth - 1) for k in ARGS)
    assert isinstance(value, IntV)
    return ("int", value.value)


def typed_outcome(result, depth: int = 2):
    # raw ints and functions from raw arguments to results: the tagless domain
    if isinstance(result, Failure):
        return ("fail", result.message)
    if callable(result.value):
        if depth == 0:
            return ("fun",)
        return ("fun",) + tuple(typed_outcome(result.value(k), depth - 1) for k in ARGS)
    return ("int", result.value)


def test_untyped_evaluators_agree_with_the_reference():
    rng = random.Random(2024)
    kinds = set()
    for _ in range(300):
        ast = random_named(rng, 5)
        t = term_of_named(ast)
        expected = ref_outcome(ref.evaluate(to_ref(ast)))
        assert untyped_outcome(eval_cbv(desugar(t))) == expected
        assert untyped_outcome(eval_fused(t)) == expected
        kinds.add(expected[1] if expected[0] == "fail" else expected[0])
    assert kinds == {"int", "fun", "error", "stuck"}


def test_typed_evaluator_agrees_with_the_reference_after_erasure():
    rng = random.Random(2025)
    kinds = set()
    for sort in (INT, TArrow(INT, INT)) * 60:
        t = random_typed_term(rng, sort, depth=4, allow_err=True)
        tree = to_ref(parse_named(pretty(erase(t))))
        expected = ref_outcome(ref.evaluate(tree))
        assert typed_outcome(typed_eval(t)) == expected
        kinds.add(expected[1] if expected[0] == "fail" else expected[0])
    assert kinds == {"int", "fun", "error"}


def test_const_fold_agrees_with_the_reference():
    rng = random.Random(2026)
    changed = 0
    for _ in range(300):
        ast = random_named(rng, 5)
        t, tree = term_of_named(ast), to_ref(ast)
        want = ref.pretty(ref.const_fold(tree))
        assert pretty(const_fold(t)) == want
        assert pretty(const_fold(desugar(t), CORE)) == ref.pretty(ref.const_fold(ref.desugar(tree)))
        changed += want != ref.pretty(tree)
    assert changed >= 20  # enough of the trees have an addition of two literals
