"""The four workloads: their operations, expected outputs and counters.

An operation (op) is one request from a workload's mix.  Its ``run``
calls the program only through a ``Program`` object, whose attributes
are the program's public functions, or traced wrappers of them during a
traced run.  Expected outputs come from ``ref`` and are computed while
setting up, so the timed loop runs the program and compares strings.
"""
from __future__ import annotations

import io
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Any, Callable

import gen
import ref

# layer name -> (module, attribute) of every public function an op calls
LAYERS = {
    "surface.parse_named": ("phoaskit.surface", "parse_named"),
    "surface.parse_ann": ("phoaskit.surface", "parse_ann"),
    "surface.term_of_named": ("phoaskit.surface", "term_of_named"),
    "lang.desugar": ("phoaskit.lang", "desugar"),
    "lang.const_fold": ("phoaskit.lang", "const_fold"),
    "lang.pretty": ("phoaskit.lang", "pretty"),
    "lang.eval_cbv": ("phoaskit.lang", "eval_cbv"),
    "lang.eval_fused": ("phoaskit.lang", "eval_fused"),
    "algebra.node_count": ("phoaskit.algebra", "node_count"),
    "hom.app_term_hom": ("phoaskit.hom", "app_term_hom"),
    "hom.strip_ann": ("phoaskit.hom", "strip_ann"),
    "names.alpha_eq": ("phoaskit.names", "alpha_eq"),
    "names.alpha_compare": ("phoaskit.names", "alpha_compare"),
    "names.struct_show": ("phoaskit.names", "struct_show"),
    "cli.main": ("phoaskit.cli", "main"),
}

# names ``phoaskit.cli.main`` reaches through module globals; a traced cli
# run swaps them for traced wrappers, since main is the only call it makes
CLI_INNER = {
    "phoaskit.cli": ("lang.pretty", "lang.desugar", "lang.const_fold", "lang.eval_cbv",
                     "lang.eval_fused", "names.struct_show", "names.alpha_eq"),
    "phoaskit.surface": ("surface.parse_named", "surface.term_of_named"),
}


class Program:
    """The program's public functions, called by their layer's short name.

    ``source`` wraps an op's input term; in a traced run it counts the
    runs of the input's builder (``builder_runs``, per op id).
    """

    def __init__(self, modules: dict[str, Any]):
        self.modules = modules
        self.tracer = None
        self.builder_runs: dict[int, int] = {}
        self.visits: dict[int, tuple[int, int]] = {}
        for layer, (module, attr) in LAYERS.items():
            setattr(self, _short(layer), getattr(modules[module], attr))

    def source(self, term):
        tracer = self.tracer
        if tracer is None:
            return term
        op = tracer.op
        self.builder_runs.setdefault(op, 0)
        live = False

        def build():
            if not live:
                return term.preterm()
            self.builder_runs[op] += 1
            return tracer.call("term.preterm", term.preterm)

        counted = self.modules["phoaskit.term"].Term(build)
        live = True
        return counted

    def count_visits(self, term) -> None:
        """Staged and fused algebra applications, via ``phoaskit.bench.counted``."""
        bench = self.modules["phoaskit.bench"]
        lang = self.modules["phoaskit.lang"]
        cata = self.modules["phoaskit.algebra"].cata
        staged_phi, staged = bench.counted(lang.eval_alg)
        cata(staged_phi, lang.desugar(term))
        fused_phi, fused = bench.counted(lang.fused_eval_alg)
        cata(fused_phi, term)
        self.visits[self.tracer.op] = (staged.count, fused.count)

    @contextmanager
    def traced(self, tracer, patch_cli: bool):
        """Route every call through ``tracer`` until the block ends."""
        self.tracer = tracer
        saved = []
        try:
            for layer, (module, attr) in LAYERS.items():
                setattr(self, _short(layer), tracer.wrap(layer, getattr(self.modules[module], attr)))
            if patch_cli:
                for module, layers in CLI_INNER.items():
                    namespace = self.modules[module]
                    for layer in layers:
                        attr = LAYERS[layer][1]
                        saved.append((namespace, attr, getattr(namespace, attr)))
                        setattr(namespace, attr, tracer.wrap(layer, getattr(namespace, attr)))
            yield
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)
            for layer, (module, attr) in LAYERS.items():
                setattr(self, _short(layer), getattr(self.modules[module], attr))
            self.tracer = None


def _short(layer: str) -> str:
    return layer.split(".", 1)[1]


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    expect: Any
    nodes: int
    length: int = 0
    latency: bool = True


@dataclass
class Cold:
    """One ``python -m phoaskit`` start: arguments, exit code and output."""

    argv: list[str]
    code: int
    stdout: str


@dataclass
class Pool:
    ops: list[Op]
    cold: list[Cold]
    digest: str
    counts: dict = field(default_factory=dict)


def render(modules, result) -> str:
    """The CLI's rendering of a program evaluation result."""
    lang = modules["phoaskit.lang"]
    if isinstance(result, modules["phoaskit.result"].Failure):
        return f"error: {result.message}"
    if isinstance(result.value, lang.IntV):
        return f"Int {result.value.value}"
    return "<fun>"


def named(modules, t):
    """The program's named tree for one of ours."""
    s = modules["phoaskit.surface"]
    tag = t[0]
    if tag == "lit":
        return s.nlit(t[1])
    if tag == "var":
        return s.nvar(t[1])
    if tag == "err":
        return s.nerr()
    if tag == "lam":
        return s.nlam(t[1], named(modules, t[2]))
    if tag == "let":
        return s.nlet(t[1], named(modules, t[2]), named(modules, t[3]))
    if tag == "app":
        return s.napp(named(modules, t[1]), named(modules, t[2]))
    return s.nplus(named(modules, t[1]), named(modules, t[2]))


def _eval_line(t) -> tuple[int, str]:
    value = ref.evaluate(t)
    return (1 if isinstance(value, ref.Fail) else 0), ref.render(value) + "\n"


# ---------------------------------------------------------------- cli

# what the printing commands write, by the reference
CLI_OUTPUT = {
    "pretty": ref.pretty,
    "desugar --fold": lambda t: ref.pretty(ref.const_fold(ref.desugar(t))),
    "constfold": lambda t: ref.pretty(ref.const_fold(t)),
    "show": ref.show,
}


def cli_pool(seed: int, P: Program, cold_starts: int) -> Pool:
    items = gen.cli_inputs(seed)
    ops = []
    cold = []
    for cmd, tree, other in items:
        text = ref.to_text(tree)
        n = ref.nodes(tree)
        if cmd == "malformed":
            argv, expect, n = ["eval", other], (2, "", True), 0
        elif cmd == "eq":
            argv = ["eq", text, ref.to_text(other)]
            same = ref.key(tree) == ref.key(other)
            expect = (0, "equal\n" if same else "not equal\n", False)
            n += ref.nodes(other)
        elif cmd.startswith("eval"):
            argv = cmd.split() + [text]
            expect = _eval_line(tree) + (False,)
        else:
            argv = cmd.split() + [text]
            expect = (0, CLI_OUTPUT[cmd](tree) + "\n", False)
        ops.append(Op(cmd, _cli_run(P, argv), expect, n))
        if len(cold) < cold_starts:
            cold.append(Cold(argv, expect[0], expect[1]))
    return Pool(ops, cold, gen.digest_items(items))


def _cli_run(P: Program, argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = P.main(argv)
        return code, out.getvalue(), err.getvalue() != ""

    return run


# ---------------------------------------------------------------- fold

def fold_pool(seed: int, P: Program, cold_starts: int) -> Pool:
    modules = P.modules
    trees = gen.fold_inputs(seed)
    ops = []
    for tree in trees:
        value = ref.render(ref.evaluate(tree))
        expect = (value, value, ref.pretty(ref.const_fold(tree)), ref.nodes(tree))
        ops.append(Op("fold", _fold_run(P, named(modules, tree)), expect, ref.nodes(tree)))
    # the smaller half, twice over: start-up, not the fold, should dominate
    small = sorted(trees, key=ref.nodes)[: len(trees) // 2]
    cold = []
    for tree in (small * cold_starts)[:cold_starts]:
        code, line = _eval_line(tree)
        cold.append(Cold(["eval", "--fused", ref.to_text(tree)], code, line))
    total = sum(ref.nodes(t) for t in trees)
    counts = {
        "lang.desugar.ir_ratio": sum(ref.nodes(ref.desugar(t)) for t in trees) / total,
        "lang.const_fold.ir_ratio": sum(ref.nodes(ref.const_fold(t)) for t in trees) / total,
    }
    return Pool(ops, cold, gen.digest_items(trees), counts)


def _fold_run(P: Program, tree):
    modules = P.modules

    def run():
        t = P.source(P.term_of_named(tree))
        value = render(modules, P.eval_fused(t))
        staged = render(modules, P.eval_cbv(P.desugar(t)))
        out = (value, staged, P.pretty(P.const_fold(t)), P.node_count(t))
        if P.tracer is not None:
            P.tracer.call("bench.counted", P.count_visits, t)
        return out

    return run


# ---------------------------------------------------------------- passes

def passes_pool(seed: int, P: Program, cold_starts: int) -> Pool:
    modules = P.modules
    lang, hom = modules["phoaskit.lang"], modules["phoaskit.hom"]
    retag_hom = hom.identity_hom(lang.CORE)
    ann_desugar = hom.lift_ann_hom(lang.desugar_hom)
    stage_fns = {
        "desugar": lambda t: P.desugar(t),
        "retag": lambda t: P.app_term_hom(retag_hom, t),
        "fold": lambda t: P.const_fold(t, lang.CORE),
    }
    items = gen.passes_inputs(seed)
    ops = []
    cold = []
    for kind, payload in items:
        if kind == "pipeline":
            tree, stages = payload
            out_tree = ref.desugar(tree)
            if "fold" in stages:
                out_tree = ref.const_fold(out_tree)
            expect = (ref.pretty(out_tree), ref.render(ref.evaluate(tree)))
            run = _pipeline_run(P, named(modules, tree), [stage_fns[s] for s in stages])
            ops.append(Op(f"pipeline{len(stages)}", run, expect, ref.nodes(tree)))
            if len(cold) < cold_starts:
                cold.append(Cold(["eq", ref.to_text(tree), ref.to_text(ref.rename(tree))], 0, "equal\n"))
        elif kind == "annotated":
            text = ref.to_text(payload)
            run = _annotated_run(P, text, ann_desugar)
            ops.append(Op(kind, run, ref.pretty(ref.desugar(payload)), ref.nodes(payload)))
        elif kind == "batch":
            classes = {}
            for tree in payload:
                classes.setdefault(ref.key(tree), tree)
            expect = [ref.show(classes[k]) for k in sorted(classes)]
            trees = [named(modules, t) for t in payload]
            ops.append(Op(kind, _batch_run(P, trees), expect, sum(map(ref.nodes, payload))))
        else:
            # documented order: a missing annotation sorts first
            run = _mixed_run(P, named(modules, payload), ref.to_text(payload))
            ops.append(Op(kind, run, -1, 2 * ref.nodes(payload)))
    return Pool(ops, cold, gen.digest_items(items))


def _pipeline_run(P: Program, tree, stages):
    modules = P.modules

    def run():
        t = P.source(P.term_of_named(tree))
        for stage in stages:
            t = stage(t)
        return P.pretty(t), render(modules, P.eval_cbv(t))

    return run


def _annotated_run(P: Program, text: str, ann_desugar):
    def run():
        t = P.app_term_hom(ann_desugar, P.parse_ann(text))
        return P.pretty(P.strip_ann(t))

    return run


def _batch_run(P: Program, trees):
    def run():
        terms = sorted((P.term_of_named(t) for t in trees), key=cmp_to_key(P.alpha_compare))
        unique = [terms[0]]
        for t in terms[1:]:
            if not P.alpha_eq(unique[-1], t):
                unique.append(t)
        return [P.struct_show(t) for t in unique]

    return run


def _mixed_run(P: Program, tree, text: str):
    def run():
        order = P.alpha_compare(P.term_of_named(tree), P.parse_ann(text))
        return (order > 0) - (order < 0)

    return run


# ---------------------------------------------------------------- deep

# inputs at most this long stay clear of every limit at the seed commit;
# only their ops count toward the latency percentiles, so a change that
# lets longer inputs complete does not read as slower ops
DEEP_LATENCY_LENGTH = 100


DEEP_COMMANDS = {"pretty": ["pretty"], "eval_cbv": ["eval"], "eval_fused": ["eval", "--fused"]}


def deep_pool(seed: int, P: Program, cold_starts: int) -> Pool:
    items = gen.deep_inputs(seed)
    ops = []
    cold = []
    # deep trees outgrow the default recursion limit in the reference
    with ref.deep_recursion():
        digest = gen.digest_items(items)
        for shape, length, consumer, tree in items:
            text = gen.deep_text(tree)
            if consumer == "pretty":
                expect = ref.pretty(tree)
            else:
                expect = ref.render(ref.evaluate(tree))
            short = length <= DEEP_LATENCY_LENGTH
            run = _deep_run(P, text, consumer)
            ops.append(Op(consumer, run, expect, ref.nodes(tree), length, latency=short))
            if short and len(cold) < cold_starts:
                cold.append(Cold(DEEP_COMMANDS[consumer] + [text], 0, expect + "\n"))
    return Pool(ops, cold, digest)


def _deep_run(P: Program, text: str, consumer: str):
    modules = P.modules

    def run():
        t = P.term_of_named(P.parse_named(text))
        if consumer == "pretty":
            return P.pretty(t)
        if consumer == "eval_cbv":
            return render(modules, P.eval_cbv(P.desugar(t)))
        return render(modules, P.eval_fused(t))

    return run


POOLS = {"cli": cli_pool, "fold": fold_pool, "passes": passes_pool, "deep": deep_pool}
