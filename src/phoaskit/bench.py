"""Staged-versus-fused evaluation with node-visit counters.

The staged pipeline materializes the desugared term and then folds it;
the fused pipeline folds the input once through the composed algebra.
Visits are counted by wrapping each rule of the evaluation algebra, so a
visit is one algebra application, variables are free, and the two
pipelines are counted by the same instrument.

The generated workload keeps every binder applied exactly once (let
bindings and immediately-applied lambdas, no error construct, integer
values everywhere), so a fused run visits each node of the input exactly
once while the staged evaluation additionally visits the nodes the
desugaring introduced.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Callable

from .algebra import cata, node_count
from .hom import HomCases
from .lang import desugar, eval_alg, fused_eval_alg
from .signature import Cases
from .surface import (
    NAst,
    NLet,
    nlam,
    napp,
    nlet,
    nlit,
    nplus,
    nvar,
    term_of_named,
)
from .term import Term

__all__ = [
    "TermStats", "VisitCounter", "bench_json", "bench_term", "counted", "measure_term", "run_bench",
    "single_use_ast",
]


class VisitCounter:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


def counted(phi: Callable) -> tuple[Callable, VisitCounter]:
    """Wrap an algebra (or homomorphism) to count its applications; a
    table stays a table of its class, its rules counting (a re-tag is no rule)."""
    counter = VisitCounter()

    def count(rule: Callable) -> Callable:
        def wrapped(node):
            counter.count += 1
            return rule(node)

        return wrapped

    if isinstance(phi, Cases):
        rules = {cls: count(rule) for cls, rule in phi.cases.items()}
        if isinstance(phi, HomCases):
            return type(phi)(rules, phi.target), counter
        return Cases(rules, phi.default and count(phi.default)), counter
    return count(phi), counter


def _counted_cata(alg: Callable, t: Term) -> tuple[object, int]:
    """Fold ``t`` with ``alg``: the result and the number of algebra applications."""
    phi, counter = counted(alg)
    return cata(phi, t), counter.count


def _contains_let(ast: NAst) -> bool:
    match ast:
        case NLet(_, _, _, _):
            return True
    for child in ("fn", "arg", "lhs", "rhs", "bound", "body"):
        sub = getattr(ast, child, None)
        if sub is not None and _contains_let(sub):
            return True
    return False


def single_use_ast(rng: random.Random, depth: int, scope: tuple[str, ...] = ()) -> NAst:
    """Closed tree in which every lambda is a redex applied exactly once."""
    choices = ["lit"]
    if scope:
        choices += ["var", "var"]
    if depth > 0:
        choices += ["plus", "plus", "let", "let", "redex"]
    pick = rng.choice(choices)
    if pick == "lit":
        return nlit(rng.randrange(0, 100))
    if pick == "var":
        return nvar(rng.choice(scope))
    if pick == "plus":
        return nplus(
            single_use_ast(rng, depth - 1, scope),
            single_use_ast(rng, depth - 1, scope),
        )
    name = f"v{len(scope)}"
    bound = single_use_ast(rng, depth - 1, scope)
    body = single_use_ast(rng, depth - 1, scope + (name,))
    if pick == "let":
        return nlet(name, bound, body)
    return napp(nlam(name, body), bound)


def bench_term(rng: random.Random, depth: int) -> Term:
    """A workload term of the shape above, guaranteed to contain a let."""
    ast = single_use_ast(rng, depth)
    if not _contains_let(ast):
        ast = nlet("w0", ast, nvar("w0"))
    return term_of_named(ast)


@dataclass(frozen=True)
class TermStats:
    nodes: int
    staged_visits: int
    fused_visits: int
    intermediate_nodes: int
    staged_result: object
    fused_result: object


def measure_term(t: Term) -> TermStats:
    """Visit counts for one term under both pipelines."""
    intermediate = desugar(t)
    staged_result, staged_visits = _counted_cata(eval_alg, intermediate)
    fused_result, fused_visits = _counted_cata(fused_eval_alg, t)
    return TermStats(
        nodes=node_count(t),
        staged_visits=staged_visits,
        fused_visits=fused_visits,
        intermediate_nodes=node_count(intermediate),
        staged_result=staged_result,
        fused_result=fused_result,
    )


def run_bench(depth: int = 6, count: int = 100, seed: int = 42) -> dict:
    """Aggregate counters and wall times over a generated workload."""
    rng = random.Random(seed)
    terms = [bench_term(rng, depth) for _ in range(count)]

    start = time.perf_counter()
    staged_visits = sum(_counted_cata(eval_alg, desugar(t))[1] for t in terms)
    staged_ms = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    fused_visits = sum(_counted_cata(fused_eval_alg, t)[1] for t in terms)
    fused_ms = (time.perf_counter() - start) * 1000.0

    return {
        "staged_visits": staged_visits,
        "fused_visits": fused_visits,
        "staged_ms": staged_ms,
        "fused_ms": fused_ms,
    }


def bench_json(depth: int = 6, count: int = 100, seed: int = 42) -> str:
    out = run_bench(depth=depth, count=count, seed=seed)
    return json.dumps(out)
