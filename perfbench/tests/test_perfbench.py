"""Checks of the benchmark itself: inputs, reference, span arithmetic, counts.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

INPUTS = {
    "cli": gen.cli_inputs,
    "fold": gen.fold_inputs,
    "passes": gen.passes_inputs,
    "deep": gen.deep_inputs,
}


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_inputs_are_a_function_of_the_seed(workload):
    make = INPUTS[workload]
    with ref.deep_recursion():
        first, again, other = (gen.digest_items(make(s)) for s in (7, 7, 8))
    assert first == again
    assert first != other


def test_reference_on_the_running_example():
    t = ref.RUNNING_EXAMPLE
    assert ref.pretty(t) == "(let x1 = 2 in ((\\x2. (x2 + x1)) 3))"
    assert ref.render(ref.evaluate(t)) == "Int 5"
    assert ref.show(t) == "Let (Lit 2) (\\a -> App (Lam (\\b -> Plus b a)) (Lit 3))"
    assert ref.pretty(ref.desugar(t)) == "((\\x1. ((\\x2. (x2 + x1)) 3)) 2)"


def test_reference_failure_order():
    lam = ("lam", "x", ("var", "x"))
    cases = {
        ("app", ("err",), ("lit", 1)): "error: error",
        ("app", ("lit", 1), ("err",)): "error: stuck",
        ("app", lam, ("err",)): "error: error",
        ("plus", ("lit", 0), lam): "error: stuck",
        ("plus", lam, ("err",)): "error: error",
        ("let", "y", ("err",), ("lit", 3)): "error: error",
        lam: "<fun>",
    }
    for tree, expected in cases.items():
        assert ref.render(ref.evaluate(tree)) == expected


def test_reference_key_is_alpha_invariant_and_ordered():
    rng = random.Random(3)
    tree = gen.sized_tree(rng, 40, linear=False, faults=0.0, max_depth=10)
    assert ref.key(tree) == ref.key(ref.rename(tree))
    assert ref.key(tree) != ref.key(gen.bump_literal(tree))
    # variables first, then constructors in signature order
    keys = [ref.key(t) for t in (lam_var(), ("lam", "x", ("lit", 0)), ("lit", 0), ("err",))]
    assert keys == sorted(keys)


def lam_var():
    return ("lam", "x", ("var", "x"))


def test_self_time_subtracts_the_children():
    # op [0, 100): parse [10, 30), eval [40, 90) which holds pretty [50, 60)
    tree = [
        ["op", 0, 100, -1, 0],
        ["parse", 10, 30, 0, 0],
        ["eval", 40, 90, 0, 0],
        ["pretty", 50, 60, 2, 0],
        ["op", 100, 130, -1, 1],
        ["parse", 105, 125, 4, 1],
    ]
    assert spans.self_times(tree) == [30, 20, 40, 10, 10, 20]
    table = spans.layer_table(tree, {0: 10, 1: 4})
    assert table["parse"]["calls"] == 2
    assert table["parse"]["self_ms"] == pytest.approx(40e-6)
    # per op: 20 ns / 10 nodes and 20 ns / 4 nodes, in µs per node
    assert table["parse"]["us_per_node"] == pytest.approx((0.002 + 0.005) / 2)


def test_self_time_merges_overlapping_children():
    tree = [["op", 0, 100, -1, 0], ["a", 10, 50, 0, 0], ["b", 30, 70, 0, 0]]
    assert spans.self_times(tree)[0] == 40


def test_high_percentile_leaves_ten_samples_above():
    samples = [float(i) for i in range(1, 201)]
    value, pct = run.high_percentile(samples)
    assert pct == 95
    assert sum(1 for s in samples if s > value) == 10


@pytest.mark.parametrize("workload", ["fold", "passes", "deep"])
def test_counts_repeat_exactly(workload):
    first = run.traced(workload, 5, 0.01)[3]
    again = run.traced(workload, 5, 0.01)[3]
    assert first["counts"] == again["counts"]
    if workload == "fold":
        counts = first["counts"]
        assert counts["algebra.visits.fused"] == counts["nodes"]
        assert first["fused_visits_off"] == 0


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_program_agrees_with_the_reference(workload):
    _, pool, _ = run.setup(workload, 11)
    causes = set()
    for op in pool.ops:
        try:
            out = op.run()
        except Exception as exc:
            causes.add(run.classify(exc))
            continue
        assert out == op.expect, op.kind
    # the failures the seed commit is known to have, and no others
    assert causes <= {"TypeError", "RecursionError", "limit:MAX_NESTING"}
