"""Independent reference semantics for the demo language.

Every output the benchmark gets from ``phoaskit`` is compared with what
these functions compute.  They work on the benchmark's own named trees,
plain tuples that never touch ``phoaskit``:

    ("lit", n)  ("var", name)  ("err",)
    ("lam", name, body)  ("app", fn, arg)  ("plus", lhs, rhs)
    ("let", name, bound, body)

The functions recurse once per nesting level; callers that feed them deep
trees raise the recursion limit around the call (see ``deep_recursion``).
"""
from __future__ import annotations

import string
import sys
from contextlib import contextmanager

# tag order of the full signature (Lam, App, Lit, Plus, Err, Let); the
# program orders constructors by injection path, which follows it
_RANK = {"lam": 0, "app": 1, "lit": 2, "plus": 3, "err": 4, "let": 5}


@contextmanager
def deep_recursion(limit: int = 20000):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def nodes(t) -> int:
    """Constructor nodes; variables are not nodes."""
    tag = t[0]
    if tag == "var":
        return 0
    if tag in ("lit", "err"):
        return 1
    if tag == "lam":
        return 1 + nodes(t[2])
    if tag == "let":
        return 1 + nodes(t[2]) + nodes(t[3])
    return 1 + nodes(t[1]) + nodes(t[2])


def to_text(t) -> str:
    """Fully parenthesized source text that the program's parser accepts."""
    tag = t[0]
    if tag == "lit":
        return str(t[1])
    if tag == "var":
        return t[1]
    if tag == "err":
        return "error"
    if tag == "lam":
        return f"(\\{t[1]}. {to_text(t[2])})"
    if tag == "let":
        return f"(let {t[1]} = {to_text(t[2])} in {to_text(t[3])})"
    if tag == "app":
        return f"({to_text(t[1])} {to_text(t[2])})"
    return f"({to_text(t[1])} + {to_text(t[2])})"


def rename(t, prefix: str = "w"):
    """An alpha-variant: every binder gets a fresh name ``<prefix><i>``."""
    counter = [0]

    def go(t, env):
        tag = t[0]
        if tag == "var":
            return ("var", env[t[1]])
        if tag in ("lit", "err"):
            return t
        if tag == "lam":
            counter[0] += 1
            new = f"{prefix}{counter[0]}"
            return ("lam", new, go(t[2], {**env, t[1]: new}))
        if tag == "let":
            bound = go(t[2], env)
            counter[0] += 1
            new = f"{prefix}{counter[0]}"
            return ("let", new, bound, go(t[3], {**env, t[1]: new}))
        return (tag, go(t[1], env), go(t[2], env))

    return go(t, {})


def desugar(t):
    """``let x = e1 in e2`` becomes ``(\\x. e2) e1``."""
    tag = t[0]
    if tag in ("var", "lit", "err"):
        return t
    if tag == "lam":
        return ("lam", t[1], desugar(t[2]))
    if tag == "let":
        return ("app", ("lam", t[1], desugar(t[3])), desugar(t[2]))
    return (tag, desugar(t[1]), desugar(t[2]))


def const_fold(t):
    """Bottom-up: an addition of two literals becomes one literal."""
    tag = t[0]
    if tag in ("var", "lit", "err"):
        return t
    if tag == "lam":
        return ("lam", t[1], const_fold(t[2]))
    if tag == "let":
        return ("let", t[1], const_fold(t[2]), const_fold(t[3]))
    lhs, rhs = const_fold(t[1]), const_fold(t[2])
    if tag == "plus" and lhs[0] == "lit" and rhs[0] == "lit":
        return ("lit", lhs[1] + rhs[1])
    return (tag, lhs, rhs)


def pretty(t, n: int = 1, env=None) -> str:
    """The program's printer: names ``x1, x2, ...`` from a stream.

    A binder takes the stream's head and prints its body (and, for a let,
    its bound expression) against the tail; siblings share one stream.
    """
    env = env or {}
    tag = t[0]
    if tag == "lit":
        return str(t[1])
    if tag == "var":
        return env[t[1]]
    if tag == "err":
        return "error"
    if tag == "lam":
        head = f"x{n}"
        return f"(\\{head}. {pretty(t[2], n + 1, {**env, t[1]: head})})"
    if tag == "let":
        head = f"x{n}"
        bound = pretty(t[2], n + 1, env)
        return f"(let {head} = {bound} in {pretty(t[3], n + 1, {**env, t[1]: head})})"
    if tag == "app":
        return f"({pretty(t[1], n, env)} {pretty(t[2], n, env)})"
    return f"({pretty(t[1], n, env)} + {pretty(t[2], n, env)})"


def _supply_name(index: int) -> str:
    letter = string.ascii_lowercase[(index - 1) % 26]
    cycle = (index - 1) // 26
    return letter if cycle == 0 else f"{letter}{cycle}"


def _atom(text: str) -> str:
    return text if " " not in text else f"({text})"


def show(t) -> str:
    """Constructor-applied rendering; binders take a, b, ... in walk order."""
    supply = [0]

    def fresh() -> str:
        supply[0] += 1
        return _supply_name(supply[0])

    def go(t, env) -> str:
        tag = t[0]
        if tag == "var":
            return env[t[1]]
        if tag == "lit":
            return "Lit " + _atom(str(t[1]))
        if tag == "err":
            return "Err"
        if tag == "lam":
            x = fresh()
            return f"Lam (\\{x} -> {go(t[2], {**env, t[1]: x})})"
        if tag == "let":
            bound = _atom(go(t[2], env))
            x = fresh()
            return f"Let {bound} (\\{x} -> {go(t[3], {**env, t[1]: x})})"
        name = "App" if tag == "app" else "Plus"
        return f"{name} {_atom(go(t[1], env))} {_atom(go(t[2], env))}"

    return go(t, {})


def key(t, env=None, level: int = 0):
    """Alpha-class key with de Bruijn levels.

    Equal keys mean alpha-equivalent trees, and tuple order is the
    program's documented order: variables before constructors, variables
    by binder level, constructors by signature position, then slots left
    to right.
    """
    env = env or {}
    tag = t[0]
    if tag == "var":
        return (0, env[t[1]])
    rank = _RANK[tag]
    if tag == "lit":
        return (1, rank, t[1])
    if tag == "err":
        return (1, rank)
    if tag == "lam":
        return (1, rank, key(t[2], {**env, t[1]: level}, level + 1))
    if tag == "let":
        return (
            1,
            rank,
            key(t[2], env, level),
            key(t[3], {**env, t[1]: level}, level + 1),
        )
    return (1, rank, key(t[1], env, level), key(t[2], env, level))


class Fail:
    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


class Closure:
    __slots__ = ("name", "body", "env")

    def __init__(self, name, body, env):
        self.name = name
        self.body = body
        self.env = env


_STUCK = Fail("stuck")
_ERROR = Fail("error")


def evaluate(t, env=None):
    """Call by value over environments; an int, a Closure or a Fail.

    Both children of an application or addition are evaluated before
    either is inspected, and failures are reported in the order the
    program's evaluation algebra checks them: the function's failure,
    then ``stuck`` for a non-function, then the argument's failure.
    A let evaluates like the application its desugaring produces.
    """
    env = env or {}
    tag = t[0]
    if tag == "lit":
        return t[1]
    if tag == "var":
        return env[t[1]]
    if tag == "err":
        return _ERROR
    if tag == "lam":
        return Closure(t[1], t[2], env)
    if tag == "let":
        bound = evaluate(t[2], env)
        if isinstance(bound, Fail):
            return bound
        return evaluate(t[3], {**env, t[1]: bound})
    left = evaluate(t[1], env)
    right = evaluate(t[2], env)
    if tag == "app":
        if isinstance(left, Fail):
            return left
        if not isinstance(left, Closure):
            return _STUCK
        if isinstance(right, Fail):
            return right
        return evaluate(left.body, {**left.env, left.name: right})
    if isinstance(left, Fail):
        return left
    if isinstance(right, Fail):
        return right
    if isinstance(left, int) and isinstance(right, int):
        return left + right
    return _STUCK


def render(value) -> str:
    """The CLI's rendering of an evaluation result."""
    if isinstance(value, Fail):
        return f"error: {value.message}"
    if isinstance(value, Closure):
        return "<fun>"
    return f"Int {value}"


RUNNING_EXAMPLE = ("let", "x", ("lit", 2), ("app", ("lam", "y", ("plus", ("var", "y"), ("var", "x"))), ("lit", 3)))
