"""Seeded input generators, one per workload.

They produce the named trees of ``ref`` and source text, never
``phoaskit`` objects, so a change to the program cannot change the
inputs.  Sizes come from fixed grids and only the shapes are drawn from
the seed: seed-to-seed differences then stay small next to the timings.

Generated programs are simply typed over ``Int`` and ``Int -> Int`` (plus
the deliberate faults below), so every one of them terminates.
"""
from __future__ import annotations

import hashlib
import math
import random

from ref import nodes, rename, to_text

INT, FUN = "int", "fun"


class TreeGen:
    """Draws one typed tree of roughly ``size`` constructor nodes.

    ``linear``: every function-typed binder is used exactly once and every
    lambda is applied exactly once, so a fused evaluation visits each
    input node once.  ``faults``: share of leaves that are ``error`` or a
    stuck application; ``linear`` trees have none.  Every binder is used.
    """

    def __init__(self, rng: random.Random, *, linear: bool, faults: float, max_depth: int):
        self.rng = rng
        self.linear = linear
        self.faults = faults
        self.max_depth = max_depth
        self.fresh = 0
        self.uses: dict[str, int] = {}

    def name(self) -> str:
        self.fresh += 1
        name = f"v{self.fresh}"
        self.uses[name] = 0
        return name

    def use(self, name: str):
        self.uses[name] += 1
        return ("var", name)

    def split(self, n: int) -> int:
        return max(1, round(n * self.rng.uniform(0.3, 0.7)))

    def funs(self, scope):
        # a linear function variable is gone once used
        return [x for x, ty in scope if ty == FUN and not (self.linear and self.uses[x])]

    def leaf(self, scope):
        rng = self.rng
        if self.faults and rng.random() < self.faults:
            if rng.random() < 0.5:
                return ("err",)
            return ("app", ("lit", rng.randrange(10)), ("lit", rng.randrange(10)))
        ints = [x for x, ty in scope if ty == INT]
        if ints and rng.random() < 0.5:
            return self.use(rng.choice(ints))
        return ("lit", rng.randrange(100))

    def int_expr(self, n: int, d: int, scope):
        if n <= 1 or d >= self.max_depth:
            return self.leaf(scope)
        rng = self.rng
        funs = self.funs(scope)
        pick = rng.random()
        if pick < 0.30:
            a = self.split(n - 1)
            return ("plus", self.int_expr(a, d + 1, scope), self.int_expr(n - 1 - a, d + 1, scope))
        if pick < 0.48:
            x = self.name()
            b = self.split(n - 1)
            bound = self.int_expr(b, d + 1, scope)
            return ("let", x, bound, self.body(x, INT, n - 1 - b, d + 1, scope))
        if pick < 0.64:
            x = self.name()
            b = self.split(n - 2)
            arg = self.int_expr(b, d + 1, scope)
            return ("app", ("lam", x, self.body(x, INT, n - 2 - b, d + 2, scope)), arg)
        if pick < 0.76:
            f = self.name()
            b = self.split(n - 1)
            bound = self.fun_expr(b, d + 1, scope)
            return ("let", f, bound, self.body(f, FUN, n - 1 - b, d + 1, scope))
        if pick < 0.86 and funs:
            return ("app", self.use(rng.choice(funs)), self.int_expr(n - 1, d + 1, scope))
        f = self.name()
        b = self.split(n - 2)
        fn = self.fun_expr(b, d + 1, scope)
        return ("app", ("lam", f, self.body(f, FUN, n - 2 - b, d + 2, scope)), fn)

    def fun_expr(self, n: int, d: int, scope):
        funs = self.funs(scope)
        if funs and (n <= 1 or self.rng.random() < 0.15):
            return self.use(self.rng.choice(funs))
        x = self.name()
        if not self.linear:
            # calls inside a function body reach no other named function,
            # which keeps evaluation cost linear in the input
            scope = [(y, ty) for y, ty in scope if ty == INT]
        return ("lam", x, self.body(x, INT, n - 1, d + 1, scope))

    def body(self, x: str, ty: str, n: int, d: int, scope):
        body = self.int_expr(max(n, 1), d, scope + [(x, ty)])
        if self.uses[x] == 0:
            use = self.use(x) if ty == INT else ("app", self.use(x), ("lit", 1))
            body = ("plus", body, use)
        return body

    def tree(self, size: int, want: str = INT):
        if want == FUN:
            return self.fun_expr(size, 0, [])
        return self.int_expr(size, 0, [])


def sized_tree(rng: random.Random, size: int, want: str = INT, **options):
    """A tree within 3% of ``size`` nodes, redrawn with a corrected request."""
    request = size
    for _ in range(50):
        tree = TreeGen(rng, **options).tree(request, want)
        got = nodes(tree)
        if abs(got - size) <= 0.03 * size + 1:
            break
        request = max(1, round(request * size / got))
    return tree


def log_grid(lo: float, hi: float, count: int) -> list[int]:
    """``count`` sizes spaced evenly on a log scale from ``lo`` to ``hi``."""
    step = math.log(hi / lo) / max(count - 1, 1)
    return [round(lo * math.exp(i * step)) for i in range(count)]


def malformed(text: str, kind: int, rng: random.Random) -> str:
    """A variant the parser must reject (exit 2), by one of three faults."""
    if kind == 0:
        # every generated text ends in ")" or an atom; cutting the last
        # ")" or appending a "+" leaves the input unterminated
        return text[:-1] if text.endswith(")") else text + " +"
    if kind == 1:
        at = rng.randrange(len(text) + 1)
        return text[:at] + " $ " + text[at:]
    return f"({text} + unboundName)"


# ---------------------------------------------------------------- cli

CLI_MIX = (
    ("pretty", 3),
    ("eval", 3),
    ("eval --fused", 3),
    ("desugar --fold", 2),
    ("constfold", 2),
    ("show", 2),
    ("eq", 3),
    ("malformed", 2),
)


def cli_inputs(seed: int, rounds: int = 24):
    """``rounds`` copies of the command mix over small and medium programs.

    Each item is ``(command, tree, other)``: ``other`` is the second
    operand of ``eq`` (an alpha-variant, or a variant with one literal
    changed) or the malformed text.
    """
    rng = random.Random(f"cli:{seed}")
    slots = [cmd for cmd, weight in CLI_MIX for _ in range(weight)]
    sizes = log_grid(8, 150, len(slots))
    items = []
    # commands meet sizes in the same pairs for every seed; the seed draws
    # the programs
    for r in range(rounds):
        for i, cmd in enumerate(slots):
            size = sizes[(i + 7 * r) % len(sizes)]
            want = FUN if cmd in ("pretty", "eval") and (i + r) % 8 == 0 else INT
            tree = sized_tree(rng, size, want, linear=False, faults=0.01, max_depth=18)
            other = None
            if cmd == "eq":
                other = rename(tree if (i + r) % 2 else bump_literal(tree))
            elif cmd == "malformed":
                other = malformed(to_text(tree), (i + r) % 3, rng)
            items.append((cmd, tree, other))
    rng.shuffle(items)
    return items


def bump_literal(t):
    """The same tree with its first literal (in walk order) plus one."""
    done = [False]

    def go(t):
        if done[0]:
            return t
        tag = t[0]
        if tag == "lit":
            done[0] = True
            return ("lit", t[1] + 1)
        if tag in ("var", "err"):
            return t
        if tag == "lam":
            return ("lam", t[1], go(t[2]))
        if tag == "let":
            return ("let", t[1], go(t[2]), go(t[3]))
        return (tag, go(t[1]), go(t[2]))

    out = go(t)
    return out if done[0] else ("plus", out, ("lit", 0))


# ---------------------------------------------------------------- fold

def fold_inputs(seed: int, sizes: int = 7, per_size: int = 3, lo: int = 100, hi: int = 1200):
    """Bushy linear trees, ``per_size`` of each size on a fixed log grid.

    Odd counts put the median latency on the middle tree of the middle
    size, a median of three shapes, for any number of whole passes.
    """
    rng = random.Random(f"fold:{seed}")
    trees = [
        sized_tree(rng, size, linear=True, faults=0.0, max_depth=28)
        for size in log_grid(lo, hi, sizes)
        for _ in range(per_size)
    ]
    rng.shuffle(trees)
    return trees


# ---------------------------------------------------------------- passes

STAGES = ("desugar", "retag", "fold")


def passes_inputs(seed: int, rounds: int = 8):
    """Items ``(kind, payload)`` in fixed shares per round.

    * ``pipeline``: ``(tree, stages)``, 1 to 8 stages, desugar first since
      the later stages are over the core signature;
    * ``annotated``: a tree whose text goes through the annotated pipeline;
    * ``batch``: 12 trees, of which some are alpha-variants of others;
    * ``mixed``: a tree compared, plain against annotated.
    """
    rng = random.Random(f"passes:{seed}")
    items = []
    sizes = log_grid(20, 90, 8)
    for r in range(rounds):
        # stage counts, sizes and stage kinds pair up the same way for
        # every seed, since a pipeline's cost grows with their product
        for k in range(1, 9):
            tree = sized_tree(rng, sizes[(k - 1 + 3 * r) % 8], linear=False, faults=0.04, max_depth=14)
            stages = ("desugar",) + tuple(STAGES[(r + j) % 3] for j in range(k - 1))
            items.append(("pipeline", (tree, stages)))
        for size in log_grid(20, 90, 2):
            tree = sized_tree(rng, size, linear=False, faults=0.04, max_depth=14)
            items.append(("annotated", tree))
        for _ in range(3):
            base = [
                sized_tree(rng, size, linear=False, faults=0.04, max_depth=10)
                for size in log_grid(6, 40, 8)
            ]
            batch = base + [rename(rng.choice(base), prefix=f"r{i}") for i in range(4)]
            rng.shuffle(batch)
            items.append(("batch", batch))
        for size in log_grid(10, 60, 2):
            tree = sized_tree(rng, size, linear=False, faults=0.0, max_depth=12)
            items.append(("mixed", tree))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------- deep

DEEP_SHAPES = ("plus_chain", "app_spine", "let_nest")
DEEP_CONSUMERS = ("pretty", "eval_cbv", "eval_fused")


def deep_tree(rng: random.Random, shape: str, length: int):
    """A narrow program of ``length`` terms; the seed picks names and literals."""
    name = rng.choice("uvwxyz")
    if shape == "plus_chain":
        tree = ("lit", rng.randrange(100))
        for _ in range(length - 1):
            tree = ("plus", tree, ("lit", rng.randrange(100)))
        return tree
    if shape == "app_spine":
        ident = ("lam", name, ("var", name))
        tree = ident
        for _ in range(length - 1):
            tree = ("app", tree, ident)
        return ("app", tree, ("lit", rng.randrange(100)))
    tree = ("var", f"{name}{length}")
    for i in range(length, 0, -1):
        bound = ("lit", rng.randrange(100))
        if i > 1:
            bound = ("plus", ("var", f"{name}{i - 1}"), bound)
        tree = ("let", f"{name}{i}", bound, tree)
    return tree


def deep_text(t, level: int = 0) -> str:
    """Source text with only the parentheses the grammar needs.

    ``level`` is where the text goes: 0 a whole expression, 1 the left
    operand of ``+``, 2 the right operand of ``+`` or a function being
    applied, 3 an argument.  Long chains then parse without nesting.
    """
    tag = t[0]
    if tag in ("lit", "var", "err"):
        return to_text(t)
    if tag == "app":
        text, need = f"{deep_text(t[1], 2)} {deep_text(t[2], 3)}", 2
    elif tag == "plus":
        text, need = f"{deep_text(t[1], 1)} + {deep_text(t[2], 2)}", 1
    elif tag == "lam":
        text, need = f"\\{t[1]}. {deep_text(t[2])}", 0
    else:
        text, need = f"let {t[1]} = {deep_text(t[2])} in {deep_text(t[3])}", 0
    return text if level <= need else f"({text})"


def deep_inputs(seed: int, count: int = 12, lo: int = 32, hi: int = 1024):
    """``count`` lengths on a fixed log grid, per shape, per consumer."""
    rng = random.Random(f"deep:{seed}")
    items = [
        (shape, length, consumer, deep_tree(rng, shape, length))
        for shape in DEEP_SHAPES
        for consumer in DEEP_CONSUMERS
        for length in log_grid(lo, hi, count)
    ]
    rng.shuffle(items)
    return items


def digest_items(items) -> str:
    """A stable digest of generated inputs, for the exact-repeat check."""
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]

