"""Signature shapes: mapping laws, coproduct witnesses, sequencing."""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, ClassVar

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nodes_equal_extensional
from phoaskit.lang import CORE, FULL, App, Err, Lam, Let, Lit, Plus
from phoaskit.result import Failure, Success
from phoaskit.signature import (
    Ann,
    Cases,
    Inl,
    Inr,
    Node,
    Signature,
    Slot,
    SlotKind,
    SubsumptionError,
    TraversalError,
    dimap,
    disequence,
    fmap_co,
    _peel,
    shape_of,
)

ALL_CLASSES = (Lam, App, Lit, Plus, Err, Let)


def ident(x):
    return x


def random_node(cls, rng: random.Random):
    values = {}
    for slot in cls.SLOTS:
        if slot.kind is SlotKind.STATIC:
            values[slot.name] = rng.randrange(-50, 50)
        elif slot.kind is SlotKind.COVARIANT:
            values[slot.name] = rng.randrange(-100, 100)
        else:
            p, q = rng.randrange(-5, 6), rng.randrange(-20, 21)
            values[slot.name] = lambda a, p=p, q=q: p * a + q
    return cls(**values)


def affine(rng: random.Random):
    p, q = rng.randrange(-5, 6), rng.randrange(-9, 10)
    return lambda x, p=p, q=q: p * x + q


def sample_args(rng: random.Random, k: int = 12):
    return tuple(rng.randrange(-40, 40) for _ in range(k))


def wrap_random(node, rng: random.Random):
    """Optionally bury the node under sum tags and an annotation."""
    for _ in range(rng.randrange(0, 3)):
        node = Inl(node) if rng.random() < 0.5 else Inr(node)
    if rng.random() < 0.3:
        node = Ann(node, rng.randrange(100))
    return node


def test_dimap_identity_law_200_random_nodes():
    rng = random.Random(42)
    for _ in range(200):
        cls = rng.choice(ALL_CLASSES)
        node = wrap_random(random_node(cls, rng), rng)
        args = sample_args(rng)
        assert nodes_equal_extensional(dimap(ident, ident, node), node, args)


def test_dimap_composition_law_200_random_nodes():
    rng = random.Random(43)
    for _ in range(200):
        cls = rng.choice(ALL_CLASSES)
        node = wrap_random(random_node(cls, rng), rng)
        f, g, h, i = (affine(rng) for _ in range(4))
        lhs = dimap(lambda x: f(g(x)), lambda x: h(i(x)), node)
        rhs = dimap(g, h, dimap(f, i, node))
        assert nodes_equal_extensional(lhs, rhs, sample_args(rng))


@given(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(-20, 20),
)
def test_dimap_slot_rules(b1, b2, fc, gc, x):
    f = lambda a: fc[0] * a + fc[1]
    g = lambda b: gc[0] * b + gc[1]
    # no contravariant slot: children mapped pointwise
    mapped = dimap(f, g, App(b1, b2))
    assert mapped == App(g(b1), g(b2))
    # binder slot becomes g . h . f
    h = lambda a: 3 * a - 7
    lam = dimap(f, g, Lam(h))
    assert lam.body(x) == g(h(f(x)))
    # static payload untouched
    assert dimap(f, g, Lit(5)) == Lit(5)


def test_fmap_co_equals_dimap_with_identity():
    rng = random.Random(44)
    for _ in range(50):
        cls = rng.choice(ALL_CLASSES)
        node = random_node(cls, rng)
        g = affine(rng)
        assert nodes_equal_extensional(
            fmap_co(g, node), dimap(ident, g, node), sample_args(rng)
        )


def test_fmap_co_let_rule():
    h = lambda a: a + 1
    g = lambda b: b * 10
    mapped = fmap_co(g, Let(4, h))
    assert mapped.bound == 40
    for a in range(-5, 6):
        assert mapped.body(a) == g(h(a))


def test_inj_builds_the_right_nested_path():
    # third of five summands sits two sums deep on the left
    assert CORE.inj(Lit(5)) == Inr(Inr(Inl(Lit(5))))
    assert FULL.inj(Let(1, ident)).__class__ is Inr
    assert CORE.inj(Lam(ident)) == Inl(Lam(ident))
    # the last summand has no Inl, and a lone summand no tag at all
    assert CORE.inj(Err()) == Inr(Inr(Inr(Inr(Err()))))
    assert Signature((Lit,)).inj(Lit(5)) == Lit(5)


def test_proj_inj_round_trip_exhaustive():
    rng = random.Random(45)
    for sig in (FULL, CORE, Signature((Lit, Plus, Err)), Signature((Lit,))):
        for cls in sig.summands:
            node = random_node(cls, rng)
            w = sig.witness(cls)
            assert w.proj(w.inj(node)) is node
            for other in sig.summands:
                if other is not cls:
                    assert sig.witness(other).proj(w.inj(node)) is None


def test_proj_wrong_summand_absent():
    assert CORE.witness(Plus).proj(CORE.inj(Lit(5))) is None
    assert CORE.witness(Lit).proj(Inl(Lam(ident))) is None


def test_reflexive_atomic_witness_is_identity():
    only = Signature((Lit,))
    node = Lit(9)
    assert only.inj(node) is node
    assert only.witness(Lit).proj(node) is node
    # same (empty) path, wrong constructor
    assert only.witness(Lit).proj(Plus(1, 2)) is None
    assert "Lit" in repr(only)


def test_missing_witness_is_a_build_error():
    with pytest.raises(SubsumptionError):
        CORE.witness(Let)
    with pytest.raises(SubsumptionError):
        Signature(())


def test_injecting_through_the_wrong_witness_is_an_error():
    with pytest.raises(SubsumptionError):
        CORE.witness(Lit).inj(Err())


def test_ambiguous_summand_rejected_at_assembly():
    with pytest.raises(SubsumptionError):
        Signature((Lit, Plus, Lit))


def test_peel_and_cases_see_through_tags_and_annotations():
    node = Ann(CORE.inj(Lit(3)), "here")
    assert _peel(node) == (Lit(3), [*CORE.witness(Lit).tags, (Ann, "here")])
    assert Cases({Lit: lambda leaf: leaf})(node) == Lit(3)


def test_disequence_no_slots():
    assert disequence(Lit(7)) == Success(Lit(7))
    assert disequence(Err()) == Success(Err())


def test_disequence_collects_successes():
    assert disequence(Plus(Success(1), Success(2))) == Success(Plus(1, 2))
    assert disequence(App(Success("f"), Success("x"))) == Success(App("f", "x"))


def test_disequence_returns_leftmost_failure():
    assert disequence(Plus(Success(1), Failure("e"))) == Failure("e")
    assert disequence(Plus(Failure("first"), Failure("second"))) == Failure("first")
    assert disequence(App(Failure("fn"), Success(1))) == Failure("fn")


def test_disequence_preserves_sum_side_and_annotation():
    wrapped = Ann(CORE.inj(Plus(Success(1), Success(2))), 99)
    out = disequence(wrapped)
    assert out == Success(Ann(CORE.inj(Plus(1, 2)), 99))


def test_disequence_random_all_success_nodes():
    rng = random.Random(46)
    for _ in range(100):
        cls = rng.choice((App, Lit, Plus, Err))
        node = random_node(cls, rng)
        lifted = fmap_co(Success, node)
        assert disequence(lifted) == Success(node)


def test_binder_signatures_expose_no_disequence():
    with pytest.raises(TraversalError):
        disequence(Lam(lambda x: Success(x)))
    with pytest.raises(TraversalError):
        disequence(Let(Success(1), lambda x: Success(x)))
    with pytest.raises(TraversalError):
        disequence(FULL.inj(Let(Success(1), lambda x: Success(x))))


@dataclass(frozen=True)
class Swapped(Node):
    """A node whose SLOTS list its fields in a different order."""

    left: Any
    right: Any
    tag: str

    SLOTS: ClassVar[tuple[Slot, ...]] = (Slot.static("tag"), Slot.co("right"), Slot.co("left"))


def test_shape_is_positional_only_when_slots_follow_the_fields():
    assert shape_of(Plus).make is Plus
    assert shape_of(Let).make is Let
    assert shape_of(Swapped).make is not Swapped
    assert shape_of(Swapped) is shape_of(Swapped)


def test_reordered_slots_rebuild_every_field_by_name():
    order = []

    def mark(v):
        order.append(v)
        return v * 10

    node = Swapped(1, 2, "t")
    assert fmap_co(mark, node) == Swapped(10, 20, "t")
    assert order == [2, 1]  # slot order, not field order
    assert dimap(ident, mark, Inr(Ann(node, 4))) == Inr(Ann(Swapped(10, 20, "t"), 4))
    assert disequence(Swapped(Success(1), Success(2), "t")) == Success(node)
    assert disequence(Swapped(Failure("l"), Failure("r"), "t")) == Failure("r")


def bury(node, layers):
    """Wrap ``node`` in layers given outermost first: "L", "R" or an annotation."""
    for layer in reversed(layers):
        node = Inl(node) if layer == "L" else Inr(node) if layer == "R" else Ann(node, layer)
    return node


def test_dimap_and_disequence_under_hand_built_deep_layers():
    node = Ann(Inr(Ann(Inl(Inr(Plus(1, 2))), "b")), "a")
    expected = Ann(Inr(Ann(Inl(Inr(Plus(10, 20))), "b")), "a")
    assert dimap(ident, lambda v: v * 10, node) == expected
    assert fmap_co(lambda v: v * 10, node) == expected
    lifted = Ann(Inr(Ann(Inl(Inr(Plus(Success(1), Success(2)))), "b")), "a")
    assert disequence(lifted) == Success(Ann(Inr(Ann(Inl(Inr(Plus(1, 2))), "b")), "a"))
    failing = Inl(Inl(Ann(Inr(Plus(Success(1), Failure("e"))), 0)))
    assert disequence(failing) == Failure("e")
    assert _peel(node)[0] == Plus(1, 2)


def test_dimap_and_disequence_under_3_to_5_mixed_layers():
    rng = random.Random(47)
    for _ in range(200):
        layers = [rng.choice(("L", "R", rng.randrange(100))) for _ in range(rng.randrange(3, 6))]
        f, g = affine(rng), affine(rng)
        a, b, n = rng.randrange(-50, 50), rng.randrange(-50, 50), rng.randrange(-50, 50)
        assert dimap(f, g, bury(Plus(a, b), layers)) == bury(Plus(g(a), g(b)), layers)
        assert dimap(f, g, bury(Lit(n), layers)) == bury(Lit(n), layers)
        h = affine(rng)
        mapped = dimap(f, g, bury(Let(a, h), layers))
        wrapper = bury(None, layers)
        while isinstance(mapped, (Inl, Inr, Ann)):
            assert type(mapped) is type(wrapper)
            if isinstance(mapped, Ann):
                assert mapped.ann == wrapper.ann
                mapped, wrapper = mapped.node, wrapper.node
            else:
                mapped, wrapper = mapped.value, wrapper.value
        assert wrapper is None and mapped.bound == g(a)
        assert all(mapped.body(x) == g(h(f(x))) for x in sample_args(rng))
        lifted = bury(Plus(Success(a), Success(b)), layers)
        assert disequence(lifted) == Success(bury(Plus(a, b), layers))
        assert disequence(bury(Plus(Success(a), Failure("e")), layers)) == Failure("e")
        with pytest.raises(TraversalError):
            disequence(bury(Lam(lambda x: Success(x)), layers))
