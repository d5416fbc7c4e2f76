"""Names, alpha-equivalence, ordering, hashing and structural printing."""
from __future__ import annotations

import random
from dataclasses import replace
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_named, rename_binders
from phoaskit.hom import annotations, app_term_hom
from phoaskit.lang import (
    FULL,
    Lit,
    count_bound_var_uses,
    desugar_hom,
    example_term,
    i_app,
    i_lam,
    i_lit,
    i_plus,
    pretty,
)
from phoaskit.names import Name, alpha_compare, alpha_eq, struct_show
from phoaskit.surface import (
    NApp,
    NErr,
    NLam,
    NLet,
    NLit,
    NPlus,
    NVar,
    SrcPos,
    parse,
    parse_ann,
    term_of_named,
)
from phoaskit.signature import Ann
from phoaskit.term import In, Term
from phoaskit.typed import INT, TArrow, random_typed_term, t_lam, t_lit


def lam(f):
    return Term(lambda: i_lam(f))


@given(st.integers(1, 2000), st.integers(1, 2000))
def test_name_order_and_rendering_track_the_index(i, j):
    a, b = Name(i), Name(j)
    assert (a == b) == (i == j)
    assert (a < b) == (i < j)
    # distinct indices render distinctly
    assert (a.render() == b.render()) == (i == j)


def test_name_rendering_cycles_with_suffix():
    assert [Name(i).render() for i in (1, 2, 26, 27, 28, 53)] == [
        "a",
        "b",
        "z",
        "a1",
        "b1",
        "a2",
    ]


def test_alpha_renaming_is_invisible():
    assert alpha_eq(lam(lambda x: x), lam(lambda y: y))


def test_distinct_binding_structure_is_visible():
    k = Term(lambda: i_lam(lambda x: i_lam(lambda y: x)))
    s = Term(lambda: i_lam(lambda x: i_lam(lambda y: y)))
    assert not alpha_eq(k, s)
    assert alpha_eq(k, k)


def test_alpha_eq_on_desugared_example():
    from phoaskit.lang import CORE, desugar

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
    assert alpha_eq(desugar(example_term()), hand)


def test_alpha_eq_is_an_equivalence_relation(alpha_pairs):
    terms = [t for pair in alpha_pairs[:60] for t in pair]
    for t, variant in alpha_pairs:
        assert alpha_eq(t, t)
        assert alpha_eq(t, variant)
        assert alpha_eq(variant, t)
    # transitivity through the variant chain, plus spot checks across terms
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = rng.choice(terms), rng.choice(terms), rng.choice(terms)
        if alpha_eq(a, b) and alpha_eq(b, c):
            assert alpha_eq(a, c)


def test_alpha_eq_is_a_congruence_for_hom_application(alpha_pairs):
    for t, variant in alpha_pairs[:60]:
        assert alpha_eq(
            app_term_hom(desugar_hom, t), app_term_hom(desugar_hom, variant)
        )


def test_cata_respects_alpha_equivalence(alpha_pairs):
    for t, variant in alpha_pairs:
        assert pretty(t) == pretty(variant)
        assert count_bound_var_uses(t) == count_bound_var_uses(variant)


def test_alpha_compare_is_reflexively_eq(corpus):
    for t in corpus[:50]:
        assert alpha_compare(t, t) == 0


def test_alpha_compare_agrees_with_alpha_eq(alpha_pairs):
    for t, variant in alpha_pairs[:60]:
        assert alpha_compare(t, variant) == 0
    k = Term(lambda: i_lam(lambda x: i_lam(lambda y: x)))
    s = Term(lambda: i_lam(lambda x: i_lam(lambda y: y)))
    assert alpha_compare(k, s) != 0


def test_alpha_compare_total_order_properties(corpus):
    rng = random.Random(9)
    terms = corpus[:40]
    for _ in range(200):
        a, b, c = rng.choice(terms), rng.choice(terms), rng.choice(terms)
        ab, ba = alpha_compare(a, b), alpha_compare(b, a)
        assert (ab > 0) == (ba < 0) and (ab == 0) == (ba == 0)
        if alpha_compare(a, b) <= 0 and alpha_compare(b, c) <= 0:
            assert alpha_compare(a, c) <= 0


def test_alpha_compare_is_total_on_values_without_an_order():
    # sorts are annotations of a type without an order of its own: they order by repr
    ident = Term(lambda: t_lam(INT, lambda x: x))
    const = Term(lambda: t_lam(TArrow(INT, INT), lambda x: t_lit(1)))
    assert alpha_compare(ident, const) == -alpha_compare(const, ident) != 0
    assert sorted([ident, const]) == sorted([const, ident])
    rng = random.Random(17)
    sorts = (INT, TArrow(INT, INT), TArrow(TArrow(INT, INT), INT))
    typed = [random_typed_term(rng, sort, depth=3) for sort in sorts for _ in range(10)]
    # and so do static payloads
    payloads = (TArrow(INT, INT), TArrow(INT, TArrow(INT, INT)), TArrow(INT, INT))
    terms = [ident, const] + [Term(lambda t=t: t) for t in typed] + [Term(lambda v=v: i_lit(v)) for v in payloads]
    ordered = sorted(terms)
    for a, b in zip(ordered, ordered[1:]):
        assert alpha_compare(a, b) <= 0
    for a in terms:
        for b in terms:
            assert alpha_compare(a, b) == -alpha_compare(b, a)
            assert (alpha_compare(a, b) == 0) == alpha_eq(a, b) == (a == b)
    assert terms[-1] == terms[-3] != terms[-2]


def test_alpha_compare_on_payloads():
    one = Term(lambda: i_lit(1))
    two = Term(lambda: i_lit(2))
    assert alpha_compare(one, two) < 0
    assert alpha_compare(two, one) > 0


def test_alpha_compare_is_total_across_payload_types():
    # a static payload orders by its type name first, as an annotation does
    one, a = Term(lambda: i_lit(1)), Term(lambda: i_lit("a"))
    assert alpha_compare(one, a) == -1 and alpha_compare(a, one) == 1
    assert Term(lambda: i_lit(True)) != Term(lambda: i_lit(1))
    # a tuple compares item by item under the same rule
    def annotated(ann):
        return Term(lambda: In(Ann(FULL.inj(Lit(0)), ann)))

    nums, strs = annotated((1,)), annotated(("a",))
    assert alpha_compare(nums, strs) == -1 and alpha_compare(strs, nums) == 1
    nested = [annotated(v) for v in ((1, ("a",)), (1, (2,)), (1,), ())]
    assert sorted(nested) == [nested[3], nested[2], nested[1], nested[0]]
    payloads = [Term(lambda v=v: i_lit(v)) for v in (("a", 1), (1, "a"), (1, 2), "b", 3)]
    assert sorted(payloads) == sorted(reversed(payloads)) == payloads[::-1]
    assert annotated((1,)) == annotated((1,)) != annotated((True,))


def test_struct_show_golden_example():
    assert (
        struct_show(example_term())
        == "Let (Lit 2) (\\a -> App (Lam (\\b -> Plus b a)) (Lit 3))"
    )
    assert repr(example_term()) == f"Term({struct_show(example_term())})"


def test_struct_show_single_node():
    assert struct_show(Term(lambda: i_lit(7))) == "Lit 7"


def test_struct_show_is_alpha_invariant(alpha_pairs):
    for t, variant in alpha_pairs:
        assert struct_show(t) == struct_show(variant)


def test_alpha_compare_orders_annotated_terms(ann_corpus):
    ordered = sorted(ann_corpus[:30])
    for a, b in zip(ordered, ordered[1:]):
        assert alpha_compare(a, b) <= 0


def test_term_operators_follow_the_alpha_relation():
    a = lam(lambda x: x)
    b = lam(lambda y: y)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert not a < b and not b < a
    one, two = Term(lambda: i_lit(1)), Term(lambda: i_lit(2))
    assert one != two
    assert one < two <= two
    assert two > one and two >= one
    assert (one == 5) is False
    with pytest.raises(TypeError):
        one < 5
    with pytest.raises(TypeError):
        sorted([one, 5])


def test_struct_show_separates_inequivalent_terms(corpus):
    rng = random.Random(10)
    terms = corpus[:60]
    for _ in range(200):
        a, b = rng.choice(terms), rng.choice(terms)
        assert (struct_show(a) == struct_show(b)) == alpha_eq(a, b)


def test_alpha_compare_orders_a_missing_annotation_first():
    plain, annotated = parse("1"), parse_ann("1")
    assert alpha_compare(plain, annotated) < 0 < alpha_compare(annotated, plain)
    assert sorted([annotated, plain])[0] is plain
    assert sorted([annotated, plain], key=cmp_to_key(alpha_compare))[0] is plain
    assert plain < annotated and not annotated < plain and plain != annotated


def test_alpha_compare_orders_annotations_by_type_name_then_value():
    def tagged(ann):
        return Term(lambda: i_plus(i_lit(1, ann=ann), i_lit(2)))

    # None, then "SrcPos" < "bool" < "float" < "int" < "str" by type name,
    # then by value; True and 1 are equal values of different types
    expected = [None, SrcPos(1, 1), SrcPos(1, 5), True, 0.5, 1, 2, 3, "a", "b"]
    terms = [tagged(ann) for ann in expected]
    typed = lambda anns: [(type(ann), ann) for ann in anns]
    rng = random.Random(13)
    for _ in range(20):
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert typed(annotations(t)[1][1] for t in sorted(shuffled)) == typed(expected)
    for a in terms:
        for b in terms:
            assert alpha_compare(a, b) == -alpha_compare(b, a)
            assert (alpha_compare(a, b) == 0) == alpha_eq(a, b)


def test_alpha_compare_reads_every_annotation_layer():
    def nested(outer):
        return Term(lambda: In(Ann(Ann(FULL.inj(Lit(1)), "inner"), outer)))

    one, two = nested("outer1"), nested("outer2")
    assert not alpha_eq(one, two)
    assert alpha_compare(one, two) < 0 < alpha_compare(two, one)
    assert alpha_eq(one, nested("outer1")) and alpha_compare(one, nested("outer1")) == 0
    # outermost layer first: "inner" alone sorts before "outer1" over "inner"
    inner = Term(lambda: In(Ann(FULL.inj(Lit(1)), "inner")))
    assert alpha_compare(inner, one) < 0 < alpha_compare(one, inner)
    assert annotations(one) == [("Lit", "inner")]


def de_bruijn_key(ast, levels=None) -> tuple:
    """An oracle for the alpha relation on plain named trees.

    A variable is ``(0, level)``, the level counting the binders around
    its own binder; a constructor is ``(1, its position in lang.FULL, its
    slots left to right)``, children and binder bodies as nested keys.
    """
    levels = levels or {}
    bind = lambda name, body: de_bruijn_key(body, {**levels, name: len(levels)})
    match ast:
        case NVar(name, _):
            return (0, levels[name])
        case NLam(name, body, _):
            return (1, 0, bind(name, body))
        case NApp(fn, arg, _):
            return (1, 1, de_bruijn_key(fn, levels), de_bruijn_key(arg, levels))
        case NLit(value, _):
            return (1, 2, value)
        case NPlus(lhs, rhs, _):
            return (1, 3, de_bruijn_key(lhs, levels), de_bruijn_key(rhs, levels))
        case NErr(_):
            return (1, 4)
        case NLet(name, bound, body, _):
            return (1, 5, de_bruijn_key(bound, levels), bind(name, body))
    raise TypeError(ast)


def rebind_vars(ast, rng: random.Random, scope: tuple[str, ...] = ()):
    """The same tree with each variable pointed at a random binder in scope."""
    if isinstance(ast, NVar):
        return replace(ast, name=rng.choice(scope))
    inner = scope + (ast.name,) if isinstance(ast, (NLam, NLet)) else scope
    slots = ("fn", "arg", "lhs", "rhs", "bound", "body")
    return replace(ast, **{
        slot: rebind_vars(getattr(ast, slot), rng, inner if slot == "body" else scope)
        for slot in slots if hasattr(ast, slot)
    })


def test_alpha_eq_and_compare_agree_with_a_de_bruijn_oracle():
    rng = random.Random(21)
    base = [random_named(rng, rng.randrange(2, 6)) for _ in range(40)]
    # each tree, a renaming and near misses: variables bound elsewhere
    groups = [[ast, rename_binders(ast, rng), *(rebind_vars(ast, rng) for _ in range(4))]
              for ast in base]
    pairs = [pair for group in groups for pair in product(group, group)]
    pairs += product(base, base)
    sign = lambda x: (x > 0) - (x < 0)
    equal_pairs = 0
    for ast1, ast2 in pairs:
        t1, t2 = term_of_named(ast1), term_of_named(ast2)
        k1, k2 = de_bruijn_key(ast1), de_bruijn_key(ast2)
        assert alpha_eq(t1, t2) == (k1 == k2)
        assert sign(alpha_compare(t1, t2)) == (k1 > k2) - (k1 < k2)
        equal_pairs += ast1 != ast2 and k1 == k2
    assert equal_pairs >= len(base)  # every renaming is equal to its tree
