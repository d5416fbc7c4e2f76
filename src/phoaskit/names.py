"""Alpha-equivalence, a total order and structural printing of closed terms.

Binders store functions, so comparing or printing terms means turning the
elusive function representation into something concrete: instantiate the
term at names, one fresh name per binder.  A :class:`~phoaskit.term.Term`
already keeps the first-order tree that its validation walked, with every
binder as the sealed token its body was applied to, so this module reads
that tree and numbers the binders 1, 2, ... in slot order, the canonical
supply of fresh names.  One walk produces a flat preorder key of the term:
alpha-equivalent terms, and only they, get equal keys, so equality is key
equality, the order is key order and ``hash(term)`` is the hash of the key.
A term computes its key once, on first use, and keeps it.
A second walk over the same tree prints the term with those names.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Any

from .signature import _CO, _CONTRA, Ann, Inl
from .term import Cxt, Term, _alpha_key, _BoundToken, _validate

__all__ = ["Name", "alpha_compare", "alpha_eq", "struct_show"]


@dataclass(frozen=True, order=True)
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


_NO_ORDER = object.__lt__  # the `<` that a type without an order of its own inherits


def _typed(value: Any) -> tuple:
    # a static payload or an annotation as its type name and a value that
    # orders against any other; a tuple's items are encoded the same way
    cls = type(value)
    if cls is tuple:
        return "tuple", tuple(map(_typed, value))
    return cls.__name__, value if cls.__lt__ is not _NO_ORDER else (repr(value), value)


def _key(tree: Any) -> tuple:
    """The canonical key of a validated tree (see ``term._validate``).

    A flat preorder tuple.  A variable is ``0`` and the number of its
    binder, binders being numbered 1, 2, ... in slot order.  A node is
    ``1``, its injection path (``L``/``R`` per sum level, outermost first),
    the tuple of its annotation layers (outermost first, each as ``(ann is
    not None, type name, ann)``, trailing ``None`` layers dropped), its
    constructor name, and then its slots in order: static values as ``(type
    name, value)``, children and binder bodies as keys.  A value whose type
    has no ``<`` of its own stands as ``(repr(value), value)``, and a tuple
    as its items, each encoded by the same rule (see ``_typed``).
    The constructor fixes the number of slots, so the key of a node ends
    where its last slot does, and comparing keys compares terms
    lexicographically node by node.
    """
    key: list = []
    numbers: dict = {}

    def walk(rec: Any) -> None:
        if type(rec) is _BoundToken:
            key.extend((0, numbers[rec]))
            return
        shape, values, tags = rec
        path, anns = "", []
        for tag, ann in tags:  # innermost first
            if tag is Ann:
                anns.append(ann)
            else:
                path = ("L" if tag is Inl else "R") + path
        while anns and anns[0] is None:
            del anns[0]
        layers = tuple((ann is not None,) + _typed(ann) for ann in reversed(anns))
        key.extend((1, path, layers, shape.name))
        for kind, value in zip(shape.kinds, values):
            if kind == _CO:
                walk(value)
            elif kind == _CONTRA:
                token, body = value
                numbers[token] = len(numbers) + 1
                walk(body)
            else:
                key.append(_typed(value))

    walk(tree)
    return tuple(key)


def preterm_eq(p1: Cxt, p2: Cxt) -> bool:
    """Alpha-equivalence of two closed preterms: both are validated as a
    :class:`~phoaskit.term.Term` would be, then their keys compared."""
    return _key(_validate(p1)) == _key(_validate(p2))


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Alpha-equivalence: equality of the two terms' keys.

    Consistently renamed terms compare equal and structurally different
    ones do not.  Nodes must agree on every annotation layer, by the type
    name and the value of each annotation.
    """
    return _alpha_key(t1) == _alpha_key(t2)


def alpha_compare(t1: Term, t2: Term) -> int:
    """Total order compatible with alpha-equivalence: the order of the keys.

    Lexicographic on (injection path, annotations, constructor name, slots
    left to right), with variables before constructor nodes and names by
    supply index.  Annotations compare layer by layer, outermost first; in
    each layer a missing annotation orders first, then annotations by type
    name, then by value.  Two annotations are equal only when their type
    names and their values are: ``True`` and ``1`` differ, and ``True``
    orders first, since ``"bool" < "int"``.  Static payloads order by type
    name and value too, and tuples item by item under that rule, so
    ``Lit(1)`` orders before ``Lit("a")`` and ``(1,)`` before ``("a",)``.
    An annotation or static payload whose type defines no ``<`` (a sort
    ``TArrow``, say) orders by its ``repr`` and then by equality, so the
    order is total on such terms too.  Returns a negative, zero or
    positive int.
    """
    k1, k2 = _alpha_key(t1), _alpha_key(t2)
    return 0 if k1 == k2 else (-1 if k1 < k2 else 1)


def _atom(text: str) -> str:
    return text if " " not in text else f"({text})"


def struct_show(t: Term) -> str:
    """Constructor-applied rendering with fresh names for binders.

    Arguments are parenthesized when compound; a binder slot prints as
    ``(\\a -> body)``, with names in the key's binder order.  Annotations
    do not participate; strip them first if a plain rendering of an
    annotated term is wanted.
    """
    names: dict = {}

    def show(rec: Any) -> str:
        if type(rec) is _BoundToken:
            return names[rec]
        shape, values, _ = rec
        parts = [shape.name]
        for kind, value in zip(shape.kinds, values):
            if kind == _CO:
                parts.append(_atom(show(value)))
            elif kind == _CONTRA:
                token, body = value
                name = names[token] = Name(len(names) + 1).render()
                parts.append(f"(\\{name} -> {show(body)})")
            else:
                parts.append(_atom(str(value)))
        return " ".join(parts)

    return show(t.tree)
