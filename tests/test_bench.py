"""Visit counters for the staged and fused pipelines."""
from __future__ import annotations

import json
import random

from phoaskit.algebra import cata, node_count
from phoaskit.bench import bench_json, bench_term, counted, measure_term, run_bench
from phoaskit.hom import app_term_hom, lift_ann_hom
from phoaskit.lang import CORE, desugar, desugar_hom, eval_alg, fused_eval_alg, i_lit, i_plus
from phoaskit.signature import Cases
from phoaskit.surface import parse_ann
from phoaskit.term import Term


def test_fused_visits_equal_the_input_node_count():
    rng = random.Random(42)
    for _ in range(100):
        stats = measure_term(bench_term(rng, 6))
        assert stats.fused_visits == stats.nodes
        assert stats.fused_visits < stats.staged_visits
        assert stats.intermediate_nodes >= 1
        assert stats.staged_result == stats.fused_result


def test_fused_and_counted_evaluators_are_rule_tables():
    assert isinstance(fused_eval_alg, Cases)
    phi, counter = counted(eval_alg)
    assert isinstance(phi, Cases)
    t = desugar(bench_term(random.Random(3), 4))
    assert cata(phi, t) == cata(eval_alg, t)
    assert counter.count == node_count(t)


def test_counted_homomorphisms_stay_tables_of_their_class():
    t = parse_ann("let x = 1 in let y = x in y + 2")
    for rho in (desugar_hom, lift_ann_hom(desugar_hom)):
        phi, counter = counted(rho)
        assert type(phi) is type(rho) and phi.target is rho.target
        assert app_term_hom(phi, t) == app_term_hom(rho, t)
        assert counter.count == 2  # a rule per let; a re-tag is no rule


def test_let_free_terms_tie_the_pipelines():
    pre = i_plus(i_plus(i_lit(1, CORE), i_lit(2, CORE), CORE), i_lit(3, CORE), CORE)
    stats = measure_term(Term(lambda: pre))
    assert stats.fused_visits == stats.staged_visits == stats.nodes == 5


def test_bench_json_shape_and_determinism():
    out = json.loads(bench_json(depth=4, count=10))
    assert list(out) == ["staged_visits", "fused_visits", "staged_ms", "fused_ms"]
    assert out["fused_visits"] <= out["staged_visits"]
    again = run_bench(depth=4, count=10)
    assert again["staged_visits"] == out["staged_visits"]
    assert again["fused_visits"] == out["fused_visits"]


def test_bench_workload_always_contains_a_let():
    rng = random.Random(7)
    for _ in range(50):
        stats = measure_term(bench_term(rng, 3))
        assert stats.fused_visits < stats.staged_visits
