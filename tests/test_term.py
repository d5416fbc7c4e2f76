"""Contexts, closed terms, and the exotic-shape exclusions."""
from __future__ import annotations

import itertools
import random

import pytest

from conftest import make_corpus
from phoaskit.algebra import cata, cata_pre
from phoaskit.lang import (
    CORE,
    FULL,
    App,
    Lam,
    Lit,
    count_alg,
    i_app,
    i_lam,
    i_let,
    i_lit,
    i_plus,
    pretty,
)
from phoaskit.hom import annotations
from phoaskit.signature import Ann, Inl, Inr, _peel, map_slots
from phoaskit.term import (
    ExoticTermError,
    Hole,
    In,
    Term,
    Var,
    app_cxt,
    inject,
    project,
    smart_binder,
    var_of,
)


def test_inject_project_round_trip():
    c = inject(Lit(2), FULL)
    assert isinstance(c, In)
    assert project(c, FULL.witness(Lit)) == Lit(2)


def test_project_on_var_and_wrong_summand():
    from phoaskit.lang import Plus

    assert project(var_of(object()), FULL.witness(Lit)) is None
    c = inject(Lit(5), FULL)
    assert project(c, FULL.witness(Plus)) is None


def test_project_looks_through_annotations():
    c = inject(Lit(5), FULL, ann="1:1")
    assert project(c, FULL.witness(Lit)) == Lit(5)
    c = In(Ann(Ann(FULL.inj(Lit(1)), "a"), "b"))
    assert project(c, FULL.witness(Lit)) == Lit(1)


def test_project_looks_through_annotations_between_sum_tags():
    from phoaskit.lang import Plus

    c = In(Inr(Inr(Ann(Inl(Lit(1)), "mid"))))
    assert project(c, FULL.witness(Lit)) == Lit(1)
    assert FULL.witness(Lit).proj(Ann(c.node, "outer")) == Lit(1)
    assert project(c, FULL.witness(Plus)) is None


def test_inject_app_head_projects_to_app():
    t1, t2 = i_lit(1), i_lit(2)
    c = i_app(t1, t2)
    head = project(c, FULL.witness(App))
    assert head == App(t1, t2)


def test_var_of_wraps_token():
    tok = object()
    assert var_of(tok) == Var(tok)


def test_smart_binder_wraps_tokens_before_the_body():
    seen = []

    def body(x):
        seen.append(x)
        return x

    slot = smart_binder(body)
    tok = object()
    out = slot(tok)
    assert seen == [Var(tok)]
    assert out == Var(tok)


def test_binder_constructor_stores_wrapped_slot():
    c = i_lam(lambda y: y, CORE)
    lam = project(c, CORE.witness(Lam))
    tok = object()
    assert lam.body(tok) == Var(tok)


def test_app_cxt_single_hole_and_var():
    t = i_lit(7, CORE)
    assert app_cxt(Hole(t)) is t
    v = Var(object())
    assert app_cxt(v) is v


def test_app_cxt_merges_nested_contexts():
    t1, t2 = i_lit(1, CORE), i_lit(2, CORE)
    merged = app_cxt(i_plus(Hole(t1), Hole(t2), CORE))
    assert merged == i_plus(t1, t2, CORE)


def random_context(rng: random.Random, depth: int, payloads: list, wrap=Hole):
    """A context of holes and its twin whose holes hold ``wrap(payload)``."""
    if depth == 0 or rng.random() < 0.4:
        payload = i_lit(rng.randrange(10), CORE)
        payloads.append(payload)
        return Hole(payload), Hole(wrap(payload))
    (lhs, lhs_twin), (rhs, rhs_twin) = (
        random_context(rng, depth - 1, payloads, wrap),
        random_context(rng, depth - 1, payloads, wrap),
    )
    return i_plus(lhs, rhs, CORE), i_plus(lhs_twin, rhs_twin, CORE)


def count_holes(c) -> int:
    """Holes of a binder-free context."""
    if isinstance(c, Hole):
        return 1
    if isinstance(c, Var):
        return 0
    return sum(map_slots(_peel(c.node)[0], count_holes, None, lambda _: 0))


def test_app_cxt_keeps_exactly_the_payload_holes():
    rng = random.Random(7)
    # payloads are themselves contexts with holes
    wrap = lambda t: i_plus(Hole(t), i_lit(1, CORE), CORE)
    for _ in range(100):
        payloads = []
        _, with_holes = random_context(rng, 3, payloads, wrap)
        merged = app_cxt(with_holes)
        assert count_holes(merged) == len(payloads)


def test_non_contexts_are_rejected():
    with pytest.raises(ExoticTermError):
        Term(lambda: 42)


def test_map_holes_then_merge_is_identity():
    rng = random.Random(8)
    for _ in range(100):
        ctx, twin = random_context(rng, 3, [])
        assert app_cxt(twin) == ctx


def test_closed_terms_contain_no_holes():
    # validation rejects holes, so the rebuilt preterm is a term again
    for t in make_corpus(40, depth=4, seed=11):
        assert Term(t.preterm) == t


def test_term_builder_runs_once_per_instantiation():
    calls = []

    def build():
        calls.append(1)
        return i_lit(3)

    t = Term(build)
    assert len(calls) == 1  # construction validates the one built preterm
    t.preterm()
    t.preterm()
    assert cata(count_alg, t) == 0
    assert len(calls) == 1


# The three classic exotic shapes.

def test_bad_place_concrete_payload_rejected():
    with pytest.raises(ExoticTermError):
        Term(lambda: var_of(True))
    with pytest.raises(ExoticTermError):
        Term(lambda: i_plus(var_of(3), i_lit(1)))


def test_tokens_cannot_escape_their_binder():
    leaked = []

    def capture(x):
        leaked.append(x)
        return x

    Term(lambda: i_lam(capture))
    assert leaked, "binder body was walked"
    with pytest.raises(ExoticTermError):
        Term(lambda: leaked[0])
    with pytest.raises(ExoticTermError):
        Term(lambda: i_plus(i_lit(0), leaked[0]))


def test_holes_rejected_in_closed_terms():
    with pytest.raises(ExoticTermError):
        Term(lambda: Hole(i_lit(1)))
    with pytest.raises(ExoticTermError):
        Term(lambda: i_plus(i_lit(1), Hole(i_lit(2))))


def test_bad_case_branching_sees_nothing():
    """A body that pattern matches its argument cannot distinguish it.

    The argument is always a Var occurrence: projection fails for every
    summand, so a case-splitting body collapses to one branch.
    """
    observed = []

    def body(x):
        observed.append(x)
        for cls in FULL.summands:
            assert project(x, FULL.witness(cls)) is None
        return x

    Term(lambda: i_lam(body))
    assert len(observed) == 1
    assert isinstance(observed[0], Var)


def test_bad_cata_folding_the_argument_yields_the_opaque_token():
    """A body that folds its argument just gets the token back.

    There is no structure underneath a bound occurrence for an analysis
    to act on, which is what rules out result-dependent bodies.
    """
    results = []

    def body(x):
        results.append(cata_pre(count_alg, x))
        return x

    Term(lambda: i_lam(body))
    (token,) = results
    assert not isinstance(token, int)  # no countable structure leaked
    assert type(token).__name__ == "_BoundToken"
    assert not [a for a in dir(token) if not a.startswith("_")]


def test_iter_nodes_walks_each_binder_body_once():
    t = Term(
        lambda: i_let(i_lit(2), lambda x: i_app(i_lam(lambda y: i_plus(y, x)), i_lit(3)))
    )
    names = [name for name, _ in annotations(t)]
    assert names == ["Let", "Lit", "App", "Lam", "Plus", "Lit"]


def test_folds_see_the_validated_tree_of_a_changing_builder():
    counter = itertools.count()
    t = Term(lambda: i_lit(next(counter)))
    for _ in range(3):
        assert cata(lambda node: _peel(node)[0].value, t) == 0
        assert annotations(t) == [("Lit", None)]
        assert pretty(t) == "0"
    assert next(counter) == 1


def test_public_names_resolve():
    import phoaskit

    assert [name for name in phoaskit.__all__ if not hasattr(phoaskit, name)] == []
    namespace = {}
    exec("from phoaskit import *", namespace)
    assert set(phoaskit.__all__) <= set(namespace)


def test_star_imports_keep_annotations():
    # a module without __all__ would export the __future__ feature of its own
    # ``from __future__ import annotations`` under that name
    import pkgutil

    import phoaskit
    from phoaskit import hom

    modules = sorted(m.name for m in pkgutil.iter_modules(phoaskit.__path__) if m.name != "__main__")
    assert {"algebra", "bench", "cli", "names", "result", "signature", "term", "typed"} <= set(modules)
    namespace = {}
    exec("from phoaskit import *\n" + "".join(f"from phoaskit.{m} import *\n" for m in modules), namespace)
    assert namespace["annotations"] is hom.annotations
    assert {"parse", "pretty", "SrcPos", "eval_fused", "TreeCases", "node_count"} <= set(namespace)
