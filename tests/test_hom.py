"""Homomorphisms: application, fusion laws, annotation propagation."""
from __future__ import annotations

import random
import sys
from collections import Counter

import pytest
from conftest import results_equivalent
from phoaskit.algebra import cata, node_count
from phoaskit.bench import bench_term, counted, measure_term
from phoaskit.hom import (
    HomCases,
    TreeCases,
    annotations,
    app_hom,
    app_term_hom,
    compose_alg_hom,
    compose_hom,
    identity_hom,
    lift_ann_hom,
    strip_ann,
)
from phoaskit.lang import (
    CORE,
    App,
    Lam,
    FULL,
    Plus,
    _pretty_alg,
    count_alg,
    desugar,
    desugar_hom,
    eval_alg,
    eval_cbv,
    eval_fused,
    example_term,
    pretty,
    NameStream,
    Let,
    Lit,
    i_lit,
)
from phoaskit.names import _key, alpha_eq, preterm_eq, struct_show
from phoaskit.signature import (
    Ann, Cases, Inl, Inr, SubsumptionError, _bare, _peel, _rewrap, fmap_co, map_slots,
)
from phoaskit.surface import NLet, NLit, NPlus, NVar, SrcPos, parse, parse_ann, term_of_named
from phoaskit.term import ExoticTermError, Hole, In, Term, Var, project, smart_binder


# a test homomorphism on the core signature: flips addition
swap_plus_hom = HomCases({Plus: lambda leaf: In(CORE.inj(Plus(Hole(leaf.rhs), Hole(leaf.lhs))))}, CORE)


def path_of(node) -> tuple:
    """The sum tag pairs of a node, innermost first, its annotations skipped."""
    return tuple(pair for pair in _peel(node)[1] if pair[0] is not Ann)


def test_app_hom_identity_is_structural_identity(corpus):
    rho = identity_hom(FULL)
    for t in corpus[:50]:
        assert preterm_eq(app_hom(rho, t.preterm()), t.preterm())


def test_app_hom_passes_variables_and_holes_through():
    v = Var(object())
    assert app_hom(desugar_hom, v) is v
    h = Hole(7)
    assert app_hom(desugar_hom, h) is h


def test_app_term_hom_identity_alpha_equal(corpus):
    rho = identity_hom(FULL)
    for t in corpus[:50]:
        assert alpha_eq(app_term_hom(rho, t), t)


def test_hom_fusion_exact_structural_equality(corpus, ann_corpus):
    pairs = [
        (identity_hom(CORE), desugar_hom),
        (swap_plus_hom, desugar_hom),
    ]
    for rho1, rho2 in pairs:
        fused = compose_hom(rho1, rho2)
        assert type(fused) is HomCases and fused.target is rho1.target
        for t in corpus:
            staged = app_hom(rho1, app_hom(rho2, t.preterm()))
            assert preterm_eq(staged, app_hom(fused, t.preterm()))
            assert app_term_hom(fused, t) == app_term_hom(rho1, app_term_hom(rho2, t))
        # lifted, on the tree path: the annotations agree too
        r1, r2 = lift_ann_hom(rho1), lift_ann_hom(rho2)
        lifted = compose_hom(r1, r2)
        assert isinstance(lifted, HomCases) and _bare(lifted) is False
        for t in ann_corpus:
            staged = app_term_hom(r1, app_term_hom(r2, t))
            assert app_term_hom(lifted, t) == staged
            assert annotations(app_term_hom(lifted, t)) == annotations(staged)
    # a core-to-core pair, on let-free inputs
    fused = compose_hom(swap_plus_hom, swap_plus_hom)
    for t in corpus:
        pre = app_hom(desugar_hom, t.preterm())
        staged = app_hom(swap_plus_hom, app_hom(swap_plus_hom, pre))
        assert preterm_eq(staged, app_hom(fused, pre))
        core = desugar(t)
        assert app_term_hom(fused, core) == app_term_hom(swap_plus_hom, app_term_hom(swap_plus_hom, core))


def test_composing_a_lifted_with_a_plain_table_is_plain():
    lifted, plain = lift_ann_hom(desugar_hom), identity_hom(CORE)
    for rho1, rho2 in ((plain, lifted), (lift_ann_hom(plain), desugar_hom)):
        assert _bare(compose_hom(rho1, rho2))
    t = parse_ann("let x = 1 in x + 2")
    out = app_term_hom(compose_hom(plain, lifted), t)
    assert out == app_term_hom(plain, app_term_hom(lifted, t)) == desugar(strip_ann(t))


def test_term_level_functions_take_rule_tables_only():
    t = parse("1 + 2")
    plain = lambda node: desugar_hom(node)
    for call in (
        lambda: app_term_hom(plain, t),
        lambda: compose_hom(plain, desugar_hom),
        lambda: compose_hom(identity_hom(CORE), plain),
        lambda: lift_ann_hom(plain),
        lambda: compose_alg_hom(eval_alg, plain),
    ):
        with pytest.raises(TypeError, match="HomCases"):
            call()


def test_compose_with_identity_behaves_as_rho(corpus):
    left = compose_hom(identity_hom(CORE), desugar_hom)
    right = compose_hom(desugar_hom, identity_hom(FULL))
    for t in corpus[:50]:
        want = app_hom(desugar_hom, t.preterm())
        assert preterm_eq(app_hom(left, t.preterm()), want)
        assert preterm_eq(app_hom(right, t.preterm()), want)


def test_algebra_fusion_for_pretty_count_eval(corpus, ann_corpus):
    count_fused = compose_alg_hom(count_alg, desugar_hom)
    pretty_fused = compose_alg_hom(_pretty_alg, desugar_hom)
    eval_fused_alg = compose_alg_hom(eval_alg, desugar_hom)
    for t in corpus + ann_corpus:
        staged = desugar(t)
        assert cata(count_alg, staged) == cata(count_fused, t)
        lhs = cata(_pretty_alg, staged)(NameStream(1))
        assert lhs == cata(pretty_fused, t)(NameStream(1))
        assert results_equivalent(cata(eval_alg, staged), cata(eval_fused_alg, t))


def test_algebra_composed_with_identity_is_the_algebra(corpus):
    phi = compose_alg_hom(count_alg, identity_hom(FULL))
    for t in corpus[:50]:
        assert cata(phi, t) == cata(count_alg, t)
    # as after app_term_hom, a constructor outside the target is an error
    with pytest.raises(SubsumptionError):
        cata(compose_alg_hom(count_alg, identity_hom(CORE)), parse("let x = 1 in x"))


def test_fused_evaluation_of_the_running_example():
    assert eval_fused(example_term()) == eval_cbv(desugar(example_term()))


def test_lifted_identity_preserves_annotations(ann_corpus):
    rho = lift_ann_hom(identity_hom(FULL))
    for t in ann_corpus[:50]:
        assert annotations(app_term_hom(rho, t)) == annotations(t)
        assert cata(rho, t).node.ann == annotations(t)[0][1]


def test_lifted_identity_keeps_nested_annotations():
    t = Term(lambda: In(Ann(Ann(FULL.inj(Lit(1)), "inner"), "outer")))
    out = app_term_hom(lift_ann_hom(identity_hom(FULL)), t)
    assert annotations(out) == annotations(t) == [("Lit", "inner")]
    assert out == t


def test_lifted_identity_keeps_annotations_between_sum_tags():
    t = Term(lambda: In(Inr(Inr(Ann(Inl(Lit(1)), "mid")))))
    out = app_term_hom(lift_ann_hom(identity_hom(FULL)), t)
    assert annotations(out) == annotations(t) == [("Lit", "mid")]
    assert out == t


def test_lifted_desugar_puts_every_layer_on_every_produced_node():
    let = Let(i_lit(1), smart_binder(lambda x: x))
    t = Term(lambda: In(Ann(Ann(FULL.inj(let), "inner"), "outer")))
    out = app_term_hom(lift_ann_hom(desugar_hom), t)
    assert annotations(out) == [("App", "inner"), ("Lam", "inner"), ("Lit", None)]
    app_tags = out.tree[2]
    assert [ann for tag, ann in app_tags if tag is Ann] == ["inner", "outer"]
    # the context path agrees, on the annotated Let and the plain Lit alike
    assert preterm_eq(app_hom(lift_ann_hom(desugar_hom), t.preterm()), out.preterm())


def test_desugared_let_nodes_carry_the_let_position():
    t = parse_ann("let x = 2 in (\\y. y + x) 3")
    out = app_term_hom(lift_ann_hom(desugar_hom), t)
    anns = annotations(out)
    assert anns[0] == ("App", SrcPos(1, 1))
    assert anns[1] == ("Lam", SrcPos(1, 1))
    assert ("Plus", SrcPos(1, 19)) in anns
    assert ("Lit", SrcPos(1, 9)) in anns


def test_strip_after_lifted_desugar_commutes(ann_corpus):
    lifted = lift_ann_hom(desugar_hom)
    for t in ann_corpus:
        lhs = strip_ann(app_term_hom(lifted, t))
        rhs = desugar(strip_ann(t))
        assert alpha_eq(lhs, rhs)


def test_every_output_annotation_comes_from_its_source_node(ann_corpus):
    lifted = lift_ann_hom(desugar_hom)
    for t in ann_corpus[:40]:
        expected = Counter()
        for name, pos in annotations(t):
            if name == "Let":
                expected[("App", pos)] += 1
                expected[("Lam", pos)] += 1
            else:
                expected[(name, pos)] += 1
        actual = Counter(annotations(app_term_hom(lifted, t)))
        assert actual == expected


def test_strip_ann_preserves_structure(corpus):
    for t in corpus[:50]:
        s = pretty(t)
        annotated = parse_ann(s)
        plain = parse(s)
        stripped = strip_ann(annotated)
        assert alpha_eq(stripped, plain)
        assert node_count(stripped) == node_count(plain)


def test_strip_ann_removes_every_annotation_layer():
    nested = Term(lambda: In(Ann(Ann(FULL.inj(Lit(1)), "inner"), "outer")))
    assert annotations(strip_ann(nested)) == [("Lit", None)]
    assert alpha_eq(strip_ann(nested), Term(lambda: i_lit(1)))


def test_annotations_agree_with_equality():
    # an inner None layer is left out of the key, and of the annotation reported
    t1 = Term(lambda: In(Ann(Ann(FULL.inj(Lit(1)), None), "p")))
    t2 = Term(lambda: In(Ann(FULL.inj(Lit(1)), "p")))
    assert t1 == t2 and hash(t1) == hash(t2)
    assert annotations(t1) == annotations(t2) == [("Lit", "p")]
    outer_none = Term(lambda: In(Ann(Ann(FULL.inj(Lit(1)), "p"), None)))
    assert outer_none != t2 and annotations(outer_none) == [("Lit", "p")]


def test_strip_ann_removes_annotations_between_sum_tags():
    tags = FULL.witness(Lit).tags
    assert len(tags) > 1

    def build():
        node = _rewrap(Lit(1), tags[:1])
        return In(_rewrap(Ann(node, "between"), tags[1:]))

    t = Term(build)
    assert annotations(t) == [("Lit", "between")]
    stripped = strip_ann(t)
    assert Ann not in [tag for tag, _ in stripped.tree[2]]
    assert alpha_eq(stripped, Term(lambda: i_lit(1)))
    assert path_of(stripped.preterm().node) == tags


def test_annotations_of_a_2000_term_chain():
    text = " + ".join(["1"] * 2000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # building and folding the term recurse once per level
    try:
        anns = annotations(parse_ann(text))
    finally:
        sys.setrecursionlimit(limit)
    lits = [("Lit", SrcPos(1, 1 + 4 * k)) for k in range(2000)]
    assert anns == [("Plus", SrcPos(1, 1))] * 1999 + lits


def test_staged_pipeline_materializes_fused_does_not(monkeypatch):
    t = parse("let x = 1 in (let y = x + 2 in y + x)")
    import phoaskit.term as term_mod

    constructed = []
    original = term_mod.Term.__init__

    def counting(self, build):
        constructed.append(self)
        original(self, build)

    monkeypatch.setattr(term_mod.Term, "__init__", counting)

    constructed.clear()
    intermediate = desugar(t)
    assert len(constructed) == 1
    assert node_count(intermediate) >= 1
    cata(eval_alg, intermediate)

    constructed.clear()
    eval_fused(t)
    assert constructed == []


def recording(phi):
    """``phi`` that also records the injection path of each node it receives."""
    paths = []

    def rec(node):
        paths.append(path_of(node))
        return phi(node)

    return rec, paths


def test_retag_fast_path_agrees_with_the_general_path(corpus, ann_corpus):
    pretty_fold = lambda phi, t: cata(phi, t)(NameStream(1))
    for rho in (desugar_hom, identity_hom(FULL)):
        for t in corpus + ann_corpus[:60]:
            staged = app_term_hom(rho, t)
            assert staged == Term(lambda: app_hom(rho, t.preterm()))
            for phi, fold, same in (
                (_pretty_alg, pretty_fold, str.__eq__),
                (eval_alg, cata, results_equivalent),
            ):
                if rho is not desugar_hom and phi is eval_alg:
                    continue  # evaluation is defined on the core signature only
                fused_phi, fused_paths = recording(phi)
                staged_phi, staged_paths = recording(phi)
                fused = compose_alg_hom(fused_phi, rho)
                assert isinstance(fused, Cases)
                want = fold(staged_phi, staged)
                assert same(fold(fused, t), want)
                # an algebra that is not a table gets the injected node, not the bare
                # leaf; the fused fold meets a rule's nodes in another order
                assert Counter(fused_paths) == Counter(staged_paths)
                assert all(path for path in fused_paths)
                assert same(fold(compose_alg_hom(phi, rho), t), want)  # the fused table


def test_retag_fast_path_keeps_one_visit_per_input_node():
    rng = random.Random(12)
    for _ in range(40):
        t = bench_term(rng, 5)
        table, table_count = counted(compose_alg_hom(eval_alg, desugar_hom))
        # an algebra that is not a table fuses into a table as well
        other, other_count = counted(compose_alg_hom(lambda node: eval_alg(node), desugar_hom))
        assert results_equivalent(cata(table, t), eval_cbv(desugar(t)))
        assert results_equivalent(cata(other, t), eval_cbv(desugar(t)))
        assert table_count.count == other_count.count == node_count(t)
        assert measure_term(t).fused_visits == node_count(t)


def test_stacked_stages_apply_each_rule_once_per_node():
    t = parse("let x = 1 + 2 in (\\y. y + x) 3 + (\\z. z) 4")
    t = app_term_hom(desugar_hom, t)
    n = node_count(t)
    # a rule for every summand, each rebuilding its node; a re-tag is no rule
    rebuild = HomCases({cls: lambda leaf: In(CORE.inj(fmap_co(Hole, leaf))) for cls in CORE.summands}, CORE)
    for k in (1, 4, 8):
        stages = [counted(rebuild) for _ in range(k)]
        assert all(type(rho) is HomCases for rho, _ in stages)
        out = t
        for rho, _ in stages:
            out = app_term_hom(rho, out)
        # each stage ran once, at its construction; no later stage reruns it
        assert [counter.count for _, counter in stages] == [n] * k
        assert alpha_eq(out, t)
        assert [counter.count for _, counter in stages] == [n] * k


# Rule tables map the source tree to the result tree; these check that path
# against the context path: app_hom of the paper's definition on the source's
# preterm, validated as a new term.

def on_preterm(rho, t: Term) -> Term:
    """``rho`` applied by :func:`app_hom` to ``t``'s preterm, validated."""
    return Term(lambda: app_hom(rho, t.preterm()))


def binder_tokens(tree) -> list:
    out, stack = [], [tree]
    while stack:
        rec = stack.pop()
        if type(rec) is tuple:
            shape, values, _ = rec
            for i in shape.co:
                stack.append(values[i])
            for i in shape.contra:
                out.append(values[i][0])
                stack.append(values[i][1])
    return out


def lam(f, sig=FULL):
    return In(sig.inj(Lam(f)))


def app(fn, arg, sig=FULL):
    return In(sig.inj(App(fn, arg)))


def plus(lhs, rhs, sig=FULL):
    return In(sig.inj(Plus(lhs, rhs)))


def test_rules_cannot_build_exotic_terms():
    t = parse("(\\x. x + 1) 2")
    foreign = HomCases({Lit: lambda leaf: plus(Var(3), In(FULL.inj(leaf)))}, FULL)
    with pytest.raises(ExoticTermError):
        app_term_hom(foreign, t)

    leaked, instances = [], []

    def leak(leaf):
        def body(v):
            leaked.append(v)
            instances.append(leaf.body(v))
            return Hole(instances[-1])

        return lam(body)

    app_term_hom(HomCases({Lam: leak}, FULL), t)
    for escape in (lambda leaf: Var(leaked[0]), lambda leaf: Hole(instances[0])):
        with pytest.raises(ExoticTermError):
            app_term_hom(HomCases({Lit: escape}, FULL), t)
    # a token used after its binder, within one context (the second binder's
    # body runs after the first's)
    inside = []
    later = lambda f: lam(lambda w: f())
    outside = lambda leaf: app(
        lam(lambda v: inside.append(v) or Hole(leaf.body(v))), later(lambda: Var(inside[-1]))
    )
    with pytest.raises(ExoticTermError):
        app_term_hom(HomCases({Lam: outside}, FULL), t)
    # a source binder called with anything but a variable of an enclosing binder
    for arg in (lambda v: 42, lambda v: Var(v), lambda v: leaked[0]):
        bad = lambda leaf, arg=arg: lam(lambda v: Hole(leaf.body(arg(v))))
        with pytest.raises(ExoticTermError):
            app_term_hom(HomCases({Lam: bad}, FULL), t)
    after = lambda leaf: app(
        lam(lambda v: inside.append(leaf.body(v)) or Var(v)), later(lambda: Hole(inside[-1]))
    )
    with pytest.raises(ExoticTermError):
        app_term_hom(HomCases({Lam: after}, FULL), t)


# \x. b  ~>  (\x. b) (\x. b): one source binder instantiated twice, in sequence
def twice_in_sequence(leaf):
    return app(lam(lambda v: Hole(leaf.body(v))), lam(lambda v: Hole(leaf.body(v))))


# \x. b  ~>  \x. \y. b[x] (b[y] + x): the second instantiation is nested in the first
def nested_twice(leaf):
    return lam(lambda v: lam(lambda w: app(Hole(leaf.body(v)), plus(Hole(leaf.body(w)), Var(v)))))


# \x. b  ~>  \x. \y. x (b[x] + b[y]): a binder's variable is placed before its body
def variable_first(leaf):
    return lam(lambda v: lam(lambda w: app(Var(v), plus(Hole(leaf.body(v)), Hole(leaf.body(w))))))


# e1 + e2  ~>  (e1 + e2) + e1: a child holding binders placed twice
def child_twice(leaf):
    return plus(plus(Hole(leaf.lhs), Hole(leaf.rhs)), Hole(leaf.lhs))


# e1 + e2  ~>  (e2 + e1) + e1: children placed as they are, without a Hole
def bare_children(leaf):
    return plus(plus(leaf.rhs, leaf.lhs), leaf.lhs)


# \x. b  ~>  \x. b[x] + x: a binder body placed as it is, without a Hole
def bare_body(leaf):
    return lam(lambda v: plus(leaf.body(v), Var(v)))


EVAL_TEXTS = [
    "let x = 2 in (\\y. y + x) 3",
    "(\\f. f (f 1)) (\\z. z + 2)",
    "let g = \\a. \\b. a + b in g 1 2 + (g 3 4 + 5)",
    "(\\x. x) error",
]


def test_duplicating_rules_agree_with_the_replay_path(corpus, ann_corpus):
    for rule in (twice_in_sequence, nested_twice, variable_first, child_twice, bare_children, bare_body):
        cls = Plus if rule in (child_twice, bare_children) else Lam
        rho = HomCases({cls: rule}, FULL)
        # lifted, a child or body that the rule places, with a Hole or without, is
        # left unannotated on both paths
        for lift in (False, True):
            hom = lift_ann_hom(rho) if lift else rho
            for t in (ann_corpus if lift else corpus)[:60]:
                out, want = app_term_hom(hom, t), on_preterm(hom, t)
                assert _key(out.tree) == _key(want.tree)
                assert struct_show(out) == struct_show(want)
                assert annotations(out) == annotations(want)
                # every binder of the result has a token of its own
                tokens = binder_tokens(out.tree)
                assert len(set(map(id, tokens))) == len(tokens)
            # the rule composed with itself is one table that agrees with two stages
            twice = compose_hom(hom, hom)
            for t in (ann_corpus if lift else corpus)[:20]:
                assert app_term_hom(twice, t) == app_term_hom(hom, app_term_hom(hom, t))
        # rewritten terms can diverge; evaluate ones that do not
        for text in EVAL_TEXTS:
            t = parse(text)
            out, want = app_term_hom(rho, t), on_preterm(rho, t)
            assert results_equivalent(eval_cbv(desugar(out)), eval_cbv(desugar(want)))


def test_desugar_of_400_nested_lets_copies_no_body(monkeypatch):
    import phoaskit.term as term_mod

    n = 400
    ast = NVar(f"x{n - 1}")
    for i in reversed(range(n)):
        ast = NLet(f"x{i}", NLit(0) if i == 0 else NPlus(NVar(f"x{i - 1}"), NLit(1)), ast)
    t = term_of_named(ast)
    copies = []
    copy = term_mod._copy_tree
    monkeypatch.setattr(term_mod, "_copy_tree", lambda *args: copies.append(1) or copy(*args))
    out = desugar(t)
    assert copies == []
    want = f"x{n}"
    for i in reversed(range(n)):
        want = f"((\\x{i + 1}. {want}) {'0' if i == 0 else f'(x{i} + 1)'})"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # pretty recurses a few frames per level
    try:
        assert pretty(out) == want
    finally:
        sys.setrecursionlimit(limit)


def test_eight_stacked_stages_agree_with_the_staged_replay_path(corpus, ann_corpus):
    swap = HomCases({Plus: lambda leaf: plus(Hole(leaf.rhs), Hole(leaf.lhs), CORE)}, CORE)
    stages = [desugar_hom] + [swap, identity_hom(CORE)] * 3 + [swap]
    assert len(stages) == 8
    for lift in (False, True):
        for t in (ann_corpus if lift else corpus)[:60]:
            fast = slow = t
            for rho in stages:
                rho = lift_ann_hom(rho) if lift else rho
                fast, slow = app_term_hom(rho, fast), on_preterm(rho, slow)
            assert fast == slow
            assert annotations(fast) == annotations(slow)
            assert pretty(strip_ann(fast)) == pretty(strip_ann(slow))
            assert results_equivalent(eval_cbv(fast), eval_cbv(slow))


def test_fusion_after_a_lifted_table_holds_for_algebras_that_ignore_annotations():
    t = parse_ann("let x = 1 in x + 2")
    rho = lift_ann_hom(desugar_hom)
    staged = app_term_hom(rho, t)
    for phi, run in (
        (count_alg, lambda r: r),
        (_pretty_alg, lambda r: r(NameStream(1))),
        (eval_alg, lambda r: r.value.value),
    ):
        assert run(cata(phi, staged)) == run(cata(compose_alg_hom(phi, rho), t))

    # a fused table calls its rules on bare constructors, so an algebra that
    # reads annotations sees them staged only
    def annotated(node) -> int:  # the nodes under an annotation layer
        leaf, tags = _peel(node)
        below = sum(map_slots(leaf, lambda n: n, lambda body: body(0), lambda _: 0))
        return below + any(tag is Ann for tag, _ in tags)

    assert cata(annotated, staged) == 5
    assert cata(compose_alg_hom(annotated, rho), t) == 0


# a TreeCases rule may project its children: they stand for their mapped trees

def test_project_reads_the_root_of_a_rule_childs_mapped_tree():
    w_lit, w_plus = FULL.witness(Lit), FULL.witness(Plus)
    seen = []

    def look(leaf):
        seen.append((project(leaf.lhs, w_lit), project(leaf.rhs, w_lit)))
        inner = project(leaf.lhs, w_plus)
        if inner is not None:  # a projected node's children project again
            seen.append((project(inner.lhs, w_lit), project(inner.rhs, w_plus)))

    app_term_hom(TreeCases({Plus: look}, FULL), parse("\\x. 1 + x + 2"))
    assert seen == [(Lit(1), None), (None, Lit(2)), (Lit(1), None)]
    # a child's annotation layers are looked through
    seen.clear()
    marked = TreeCases({Lit: lambda leaf: i_lit(leaf.value, FULL, ann="m"), Plus: look}, FULL)
    out = app_term_hom(marked, parse("1 + 2"))
    assert seen == [(Lit(1), Lit(2))]
    assert annotations(out) == [("Plus", None), ("Lit", "m"), ("Lit", "m")]


def test_a_declining_rule_re_tags_the_node():
    t = parse_ann("\\x. x + (1 + 2)")
    out = app_term_hom(TreeCases({Plus: lambda leaf: None}, CORE), t)
    assert out == app_term_hom(identity_hom(CORE), t) == desugar(strip_ann(t))
    assert path_of(out.preterm().node) == CORE.witness(Lam).tags
    assert [ann for _, ann in annotations(out)] == [None] * 5


def test_a_projected_node_cannot_be_placed():
    w_plus, w_lam = FULL.witness(Plus), FULL.witness(Lam)

    def graft(witness, place):
        def rule(leaf):
            inner = project(leaf.lhs, witness)
            return None if inner is None else place(inner, leaf)

        return TreeCases({Plus: rule}, FULL)

    for witness, place, text in (
        (w_plus, lambda inner, leaf: plus(inner.lhs, leaf.rhs), "1 + 2 + 3"),
        (w_plus, lambda inner, leaf: plus(Hole(inner.rhs), leaf.rhs), "1 + 2 + 3"),
        (w_lam, lambda inner, leaf: lam(lambda v: Hole(inner.body(v))), "(\\x. x) + 3"),
        (w_lam, lambda inner, leaf: lam(lambda v: inner.body(v)), "(\\x. x) + 3"),
        (w_plus, lambda inner, leaf: plus(Var(object()), leaf.rhs), "1 + 2 + 3"),  # a foreign Var
    ):
        with pytest.raises(ExoticTermError):
            app_term_hom(graft(witness, place), parse(text))
    # the rule's own children and a projected static payload are fine
    out = app_term_hom(graft(w_plus, lambda inner, leaf: plus(leaf.lhs, leaf.rhs)), parse("1 + 2 + 3"))
    assert out == parse("1 + 2 + 3")


def test_fusion_refuses_a_projecting_table():
    table = TreeCases({Plus: lambda leaf: None}, CORE)
    assert isinstance(desugar_hom, TreeCases)
    for call in (
        lambda: compose_hom(identity_hom(CORE), table),
        lambda: compose_hom(table, desugar_hom),
        lambda: compose_alg_hom(eval_alg, table),
        lambda: lift_ann_hom(table),
    ):
        with pytest.raises(TypeError, match="HomCases"):
            call()
