"""Fresh names and the name-instantiated views of closed terms.

Binders store functions, so comparing or printing two terms means turning
the elusive function representation into something concrete: instantiate
both terms at the opaque :class:`Name` type, and at each binder apply the
bodies to one shared fresh name.  A deterministic supply makes the
results reproducible; alpha-equivalent terms receive identical names and
therefore compare equal and print identically.
"""
from __future__ import annotations

import operator
import string
from dataclasses import dataclass
from functools import total_ordering
from itertools import zip_longest
from typing import Callable, Generic, TypeVar

from .signature import leaf_of, map_slots, unwrap_layers
from .term import Cxt, In, Term, Var

R = TypeVar("R")


@total_ordering
@dataclass(frozen=True)
class Name:
    """An opaque distinct name; ordering and rendering follow the index."""

    index: int  # 1-based position in the canonical supply

    def render(self) -> str:
        i = self.index - 1
        letter = string.ascii_lowercase[i % 26]
        cycle = i // 26
        return letter if cycle == 0 else f"{letter}{cycle}"

    def __str__(self) -> str:
        return self.render()

    def __lt__(self, other: "Name") -> bool:
        return self.index < other.index


class FreshSupply:
    """Hands out pairwise-distinct names: a, b, ..., z, a1, b1, ..."""

    def __init__(self) -> None:
        self._next = 1

    def fresh(self) -> Name:
        name = Name(self._next)
        self._next += 1
        return name


class FreshComp(Generic[R]):
    """A computation with access to a supply of fresh names."""

    __slots__ = ("_run",)

    def __init__(self, run: Callable[[FreshSupply], R]):
        self._run = run

    def run(self, supply: FreshSupply) -> R:
        return self._run(supply)


def pure(value: R) -> FreshComp[R]:
    return FreshComp(lambda _supply: value)


def with_name(k: Callable[[Name], FreshComp[R]]) -> FreshComp[R]:
    """Provide a fresh name to the continuation."""
    return FreshComp(lambda supply: k(supply.fresh()).run(supply))


def eval_fresh(comp: FreshComp[R]) -> R:
    """Run a computation against the canonical supply."""
    return comp.run(FreshSupply())


def _pairwise(walk: Callable, supply: FreshSupply) -> tuple[Callable, Callable]:
    """Slot functions walking two children, or two binder bodies applied
    to one shared fresh name."""

    def bodies(body1, body2):
        x = supply.fresh()
        return walk(body1(x), body2(x), supply)

    return lambda c1, c2: walk(c1, c2, supply), bodies


def _peq(c1: Cxt, c2: Cxt, supply: FreshSupply) -> bool:
    if isinstance(c1, Var) and isinstance(c2, Var):
        return c1.token == c2.token
    if not (isinstance(c1, In) and isinstance(c2, In)):
        return False
    leaf1, path1, anns1 = unwrap_layers(c1.node)
    leaf2, path2, anns2 = unwrap_layers(c2.node)
    if path1 != path2 or type(leaf1) is not type(leaf2):
        return False
    # a missing layer equals a layer annotated None, as in the order below
    if anns1 != anns2 and any(a1 != a2 for a1, a2 in zip_longest(anns1, anns2)):
        return False
    return all(map_slots(leaf1, *_pairwise(_peq, supply), operator.eq, other=leaf2))


def preterm_eq(p1: Cxt, p2: Cxt) -> bool:
    """Structural equality of two preterms at the name instantiation.

    Binder pairs are applied to one shared fresh name from the canonical
    supply, so the comparison is exact on everything the supply reaches.
    """
    return eval_fresh(FreshComp(lambda supply: _peq(p1, p2, supply)))


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Alpha-equivalence, decided at the name instantiation.

    Both terms are instantiated at names; at each binder pair the two
    bodies are applied to one shared fresh name, so consistently renamed
    terms compare equal and structurally different ones do not.  Nodes
    must agree on every annotation layer.
    """
    return preterm_eq(t1.preterm(), t2.preterm())


_LT, _EQ, _GT = -1, 0, 1


def _cmp(a, b) -> int:
    return _LT if a < b else (_GT if a > b else _EQ)


def _rank(c: Cxt) -> int:
    # variables order before constructor nodes; a documented choice
    return 0 if isinstance(c, Var) else 1


def _pcompare(c1: Cxt, c2: Cxt, supply: FreshSupply) -> int:
    if _rank(c1) != _rank(c2):
        return _cmp(_rank(c1), _rank(c2))
    if isinstance(c1, Var):
        return _cmp(c1.token, c2.token)
    leaf1, path1, anns1 = unwrap_layers(c1.node)
    leaf2, path2, anns2 = unwrap_layers(c2.node)
    if path1 != path2:
        return _cmp(path1, path2)
    # layer by layer, outermost first: a missing annotation first, then
    # annotations by type name, then by value
    for ann1, ann2 in zip_longest(anns1, anns2):
        if ann1 != ann2:
            rank = lambda ann: (ann is not None, type(ann).__name__)
            order = _cmp(rank(ann1), rank(ann2)) or _cmp(ann1, ann2)
            if order:
                return order
    if type(leaf1) is not type(leaf2):
        return _cmp(type(leaf1).__name__, type(leaf2).__name__)
    orders = map_slots(leaf1, *_pairwise(_pcompare, supply), _cmp, other=leaf2)
    return next((order for order in orders if order != _EQ), _EQ)


def alpha_compare(t1: Term, t2: Term) -> int:
    """Total order compatible with alpha-equivalence.

    Lexicographic on (injection path, annotations, constructor name, slots
    left to right); names compare by supply index.  Annotations compare
    layer by layer, outermost first; in each layer a missing annotation
    orders first, then annotations by type name, then by value.  Returns a
    negative, zero or positive int.
    """
    p1, p2 = t1.preterm(), t2.preterm()
    return eval_fresh(FreshComp(lambda supply: _pcompare(p1, p2, supply)))


def _atom(text: str) -> str:
    return text if " " not in text else f"({text})"


def _pshow(c: Cxt, supply: FreshSupply) -> str:
    if isinstance(c, Var):
        return str(c.token)
    leaf = leaf_of(c.node)

    def binder(body):
        x = supply.fresh()
        return f"(\\{x} -> {_pshow(body(x), supply)})"

    child = lambda c: _atom(_pshow(c, supply))
    parts = map_slots(leaf, child, binder, lambda value: _atom(str(value)))
    return " ".join([type(leaf).__name__, *parts])


def struct_show(t: Term) -> str:
    """Constructor-applied rendering with fresh names for binders.

    Arguments are parenthesized when compound; a binder slot prints as
    ``(\\a -> body)``.  Annotations do not participate; strip them first
    if a plain rendering of an annotated term is wanted.
    """
    pre = t.preterm()
    return eval_fresh(FreshComp(lambda supply: _pshow(pre, supply)))
