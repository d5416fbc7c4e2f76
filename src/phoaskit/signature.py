"""Two-parameter signature shapes and their composition.

A signature constructor is a non-recursive node shape with three kinds of
slots:

* covariant slots hold recursive positions (children),
* contravariant slots hold total functions from the variable side into the
  recursive side (binders),
* static slots hold constructor payload (an integer literal, say).

Each constructor class is compiled once into a :class:`Shape`, and every
generic walk (mapping, sequencing, traversal, validation, equality,
printing) goes through it; sum tags and annotations are peeled off by a
loop and put back around the rebuilt node.

``dimap`` is the structure-preserving map over both sides; fixing the
contravariant side with the identity gives the ordinary child-mapping
``fmap_co``.  Signatures compose by a right-nested binary sum (``Inl`` /
``Inr``), and a :class:`Signature` records the summand order so injections
and partial projections can be derived mechanically.

Laws expected of every node class (checked by the test suite):

    dimap(id, id) == id
    dimap(f . g, h . i) == dimap(g, h) . dimap(f, i)
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import cache
from operator import attrgetter
from typing import Any, Callable, ClassVar, Iterator

from .result import Failure, Result, Success
del annotations  # the __future__ feature, which a star import would export


class SlotKind(Enum):
    STATIC = "static"
    COVARIANT = "covariant"
    CONTRAVARIANT = "contravariant"


@dataclass(frozen=True)
class Slot:
    name: str
    kind: SlotKind

    @staticmethod
    def static(name: str) -> "Slot":
        return Slot(name, SlotKind.STATIC)

    @staticmethod
    def co(name: str) -> "Slot":
        return Slot(name, SlotKind.COVARIANT)

    @staticmethod
    def contra(name: str) -> "Slot":
        return Slot(name, SlotKind.CONTRAVARIANT)


class Node:
    """Base class for signature constructor nodes.

    Subclasses are frozen dataclasses whose ``SLOTS`` tuple names every
    field together with its variance.  The tuple is compiled once per
    class into a :class:`Shape` that all generic machinery (mapping,
    traversal, validation, equality, printing) walks, so a new signature
    is just a dataclass plus its slot declaration.
    """

    SLOTS: ClassVar[tuple[Slot, ...]] = ()


# the codes of Shape.kinds: a slot kind's position in SlotKind
_STATIC, _CO, _CONTRA = range(len(SlotKind))


class Shape:
    """The slot layout of one constructor class, compiled from ``SLOTS``.

    ``cls`` is the class and ``name`` its name, ``kinds`` codes each slot
    by its position in :class:`SlotKind`, ``co`` and ``contra`` index the
    covariant and contravariant slots and ``inner`` both kinds together, in
    slot order; ``values`` reads the slot values in order and
    ``make`` rebuilds a node from them: positionally when ``SLOTS`` lists
    the dataclass fields in order, by keyword otherwise, so a reordered
    declaration never fills a wrong field.
    """

    __slots__ = ("cls", "name", "kinds", "co", "contra", "inner", "values", "make")

    def __init__(self, cls: type):
        self.cls = cls
        self.name = cls.__name__
        names = tuple(slot.name for slot in cls.SLOTS)
        self.kinds = tuple(tuple(SlotKind).index(slot.kind) for slot in cls.SLOTS)
        self.co = tuple(i for i, s in enumerate(cls.SLOTS) if s.kind is SlotKind.COVARIANT)
        self.contra = tuple(i for i, s in enumerate(cls.SLOTS) if s.kind is SlotKind.CONTRAVARIANT)
        self.inner = tuple(sorted(self.co + self.contra))
        get = attrgetter(*names) if names else None
        self.values = get if len(names) > 1 else lambda node: (get(node),) if get else ()
        ordered = is_dataclass(cls) and tuple(f.name for f in fields(cls) if not f.kw_only)
        self.make = cls if ordered == names else lambda *vs: cls(**dict(zip(names, vs)))


shape_of = cache(Shape)  # one shape per class, compiled on first use


def _identity(x):
    return x


def map_slots(leaf: Node, co: Callable, contra: Callable, static: Callable = _identity) -> Iterator:
    """Lazily map each slot of ``leaf``, in order, by the function for its kind."""
    shape = shape_of(type(leaf))
    fns = (static, co, contra)
    return (fns[k](v) for k, v in zip(shape.kinds, shape.values(leaf)))


class SubsumptionError(TypeError):
    """No (or no unambiguous) injection of a summand into a signature."""


class TraversalError(TypeError):
    """Sequencing was attempted over a signature with binder slots."""


@dataclass(frozen=True)
class Inl:
    value: Any


@dataclass(frozen=True)
class Inr:
    value: Any


@dataclass(frozen=True)
class Ann:
    """A node paired with a constant annotation.

    Annotating a signature leaves its shape alone: mapping and traversal
    act on the wrapped node and carry the annotation across unchanged.
    """

    node: Any
    ann: Any


def _peel(node: Any) -> tuple[Node, list]:
    # the constructor and the (type, ann) pairs of the sum tags and annotations
    # around it, innermost first: the one layer format, which term trees store
    tags = []
    while True:
        tag = type(node)
        if tag is Inl or tag is Inr:
            tags.append((tag, None))
            node = node.value
        elif tag is Ann:
            tags.append((Ann, node.ann))
            node = node.node
        else:
            tags.reverse()
            return node, tags


def _rewrap(node: Node, tags) -> Any:
    for tag, ann in tags:
        node = tag(node) if tag is not Ann else Ann(node, ann)
    return node


def dimap(pre: Callable, post: Callable, node: Any) -> Any:
    """Map ``pre`` over the variable side and ``post`` over the children.

    Contravariant slots ``h`` become ``post . h . pre``, covariant slots
    are mapped by ``post``, static slots are untouched.  Sums and
    annotations are preserved.
    """
    leaf, tags = _peel(node)
    shape = shape_of(type(leaf))
    values = list(shape.values(leaf))
    for i in shape.co:
        values[i] = post(values[i])
    for i in shape.contra:
        values[i] = _compose3(post, values[i], pre)
    out = shape.make(*values)
    return _rewrap(out, tags) if tags else out


def _compose3(post: Callable, h: Callable, pre: Callable) -> Callable:
    return lambda x: post(h(pre(x)))


def fmap_co(post: Callable, node: Any) -> Any:
    """``dimap`` with the identity on the variable side."""
    return dimap(_identity, post, node)


class MissingCaseError(LookupError):
    """A rule table has no rule, and no default, for a constructor it met."""


class Cases:
    """A rule table: a rule per constructor class, ``default`` for the rest.

    This is the stand-in for open algebra families: a pass lists its
    special rules and routes every other constructor to the default.
    Rules take the bare constructor: a fold calls ``rule(shape.cls)`` on
    the node it rebuilds, without sum tags or annotations, and the table
    called on a node looks through them first.
    """

    __slots__ = ("cases", "default")

    def __init__(self, cases: dict[type, Callable], default: Callable | None = None):
        self.cases = cases
        self.default = default

    def rule(self, cls: type) -> Callable:
        rule = self.cases.get(cls, self.default)
        if rule is None:
            raise MissingCaseError(f"no rule for constructor {cls.__name__}")
        return rule

    def __call__(self, node: Any) -> Any:
        # _peel without recording the layers, at half its cost on a five-tag node
        tag = type(node)
        while tag is Inl or tag is Inr or tag is Ann:
            node = node.node if tag is Ann else node.value
            tag = type(node)
        return self.rule(tag)(node)


def _bare(phi: Any) -> bool:
    # a table whose call only looks through the tags, so that its rules can be
    # called on the bare constructor; a lifted one reads the annotations
    return type(phi).__call__ is Cases.__call__


@dataclass(frozen=True)
class Subsumption:
    """Injection/projection witness for one summand of a signature.

    ``tags`` is the summand's injection path as the ``(Inl | Inr, None)``
    pairs, innermost first, that a term tree stores for an injected node.
    ``proj(inj(n)) is n`` for every node ``n`` of the summand, and
    ``proj`` answers ``None`` for nodes that took any other path into the
    sum.  Annotation layers are looked through wherever they sit: around
    the sum tags, between them or on the constructor itself.
    """

    summand: type
    tags: tuple

    def inj(self, node: Node) -> Any:
        if not isinstance(node, self.summand):
            raise SubsumptionError(
                f"cannot inject {type(node).__name__} with a "
                f"{self.summand.__name__} witness"
            )
        return _rewrap(node, self.tags)

    def proj(self, node: Any) -> Node | None:
        leaf, tags = _peel(node)
        tags = tuple(pair for pair in tags if pair[0] is not Ann)
        return leaf if tags == self.tags and isinstance(leaf, self.summand) else None


class Signature:
    """A right-nested sum of constructor classes, in declaration order.

    The nesting is implicit in the summand order: ``Signature((A, B, C))``
    stands for ``A + (B + C)``, so the injection paths are ``L``, ``RL``
    and ``RR``, read outermost first: the i-th of n summands sits under i
    ``Inr`` tags, and under an ``Inl`` inside them unless it is the last.
    Each witness holds its path as tag pairs.  Witness search is
    leftmost-first and a class occurring twice is rejected here rather
    than at use sites.
    """

    def __init__(self, summands: tuple[type, ...], name: str | None = None):
        if not summands:
            raise SubsumptionError("a signature needs at least one summand")
        seen = set()
        for cls in summands:
            if cls in seen:
                raise SubsumptionError(
                    f"summand {cls.__name__} occurs more than once; "
                    "injection would be ambiguous"
                )
            seen.add(cls)
        self.summands = tuple(summands)
        self.name = name or "+".join(cls.__name__ for cls in summands)
        last = len(summands) - 1
        self._witnesses = {
            cls: Subsumption(cls, ((Inl, None),) * (i < last) + ((Inr, None),) * i)
            for i, cls in enumerate(summands)
        }

    def find(self, cls: type) -> Subsumption | None:
        return self._witnesses.get(cls)

    def witness(self, cls: type) -> Subsumption:
        w = self._witnesses.get(cls)
        if w is None:
            raise SubsumptionError(f"{cls.__name__} is not a summand of {self.name}")
        return w

    def inj(self, node: Node) -> Any:
        return self.witness(type(node)).inj(node)

    def __repr__(self) -> str:
        return f"Signature({self.name})"


def disequence(node: Any) -> Result:
    """Run the slot effects of a binder-free node left to right.

    Covariant slots must hold :class:`Result` values; the first failure
    aborts and is returned as is, otherwise a node of the same shape with
    the unwrapped slot values is rebuilt.  Nodes with contravariant slots
    have no meaningful sequencing and raise :class:`TraversalError`.
    """
    leaf, tags = _peel(node)
    shape = shape_of(type(leaf))
    if shape.contra:
        raise TraversalError(f"{type(leaf).__name__} embeds a binder and cannot be sequenced")
    results = list(map_slots(leaf, _identity, _identity, Success))
    failed = [r for r in results if isinstance(r, Failure)]
    if failed:
        return failed[0]
    return Success(_rewrap(shape.make(*(r.value for r in results)), tags))

