"""Benchmark of the phoaskit program, one workload per process.

    python3 perfbench/run.py --workload {cli,fold,passes,deep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Each workload is a closed loop with one client: an op
is sent only after the previous one returned.  The loop runs whole passes
over the workload's ops until ``--seconds`` have gone by.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
loop untraced and then traced for half the time each, and reports the
per-layer metrics from the spans.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the readable report.  The full
result, and in a traced run the spans, go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import ref
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WHY = {
    "cli": "in-process CLI calls on small programs: lexing, parsing, validation and process start dominate, folds do little",
    "fold": "bushy terms built from named trees, then fused and staged evaluation, folding, printing: dimap, cata and fusion dominate",
    "passes": "stacked hom pipelines and alpha sorts: Term revalidation and the names walks dominate; includes mixed-annotation compares",
    "deep": "narrow deep programs from text, 32 to 1024 terms: the only workload where ops fail today (recursion and nesting limits)",
}

SETUP_SAMPLES = 6
# machine-speed probes: one every PROBE_EVERY s of loop time, each the best
# of three runs of a fixed pure-Python task; NOMINAL_PROBE_MS is that task's
# median time on the 2-CPU Xeon box where the benchmark was written
PROBE_EVERY = 0.2
NOMINAL_PROBE_MS = 1.0
COLD_STARTS = 20
IMPORT_SAMPLES = 5

END_TO_END = ("setup_s", "ops_per_s", "nodes_per_s", "op_p50_ms", "op_p99_ms", "ok_share",
              "cold_p50_ms", "peak_rss_mb")

PER_LAYER = (
    "surface.term_of_named.us_per_node",
    "lang.desugar.us_per_node",
    "lang.pretty.us_per_node",
    "lang.eval_cbv.us_per_node",
    "cli.import_ms",
    "term.builder_runs",
    "algebra.visits.staged",
    "algebra.visits.fused",
    "lang.desugar.ir_ratio",
    "lang.const_fold.ir_ratio",
    "names.compares_per_sort",
    "deep.max_ok_length.pretty",
    "deep.max_ok_length.eval_cbv",
    "deep.max_ok_length.eval_fused",
    "trace.overhead",
)

UNITS = {
    "us_per_node": "us/node",
    "import_ms": "ms",
    "ms_p50": "ms",
    "builder_runs": "runs/op",
    "staged": "count",
    "fused": "count",
    "ir_ratio": "ratio",
    "compares_per_sort": "count",
    "pretty": "count",
    "eval_cbv": "count",
    "eval_fused": "count",
    "overhead": "ratio",
}


class SetupError(RuntimeError):
    """The checkout does not hold the program's sources."""


def load_program():
    """Import the program from this checkout's ``src`` (timed as set-up)."""
    if not (SRC / "phoaskit" / "__init__.py").is_file():
        raise SetupError(f"no phoaskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {}
    for name in ("phoaskit", "phoaskit.term", "phoaskit.surface", "phoaskit.lang",
                 "phoaskit.algebra", "phoaskit.hom", "phoaskit.names", "phoaskit.result",
                 "phoaskit.bench", "phoaskit.cli"):
        modules[name] = importlib.import_module(name)
    if Path(modules["phoaskit"].__file__).resolve().parent != SRC / "phoaskit":
        raise SetupError(f"phoaskit was imported from {modules['phoaskit'].__file__}")
    return workloads.Program(modules)


def setup(workload: str, seed: int):
    """Everything from entering the workload to the first timed op."""
    start = time.perf_counter()
    program = load_program()
    pool = workloads.POOLS[workload](seed, program, COLD_STARTS)
    # the pool lives as long as the run: keep the collector from rescanning it
    gc.collect()
    gc.freeze()
    return program, pool, time.perf_counter() - start


def classify(exc: Exception) -> str:
    if type(exc).__name__ == "ParseError" and "nesting too deep" in str(exc):
        return "limit:MAX_NESTING"
    return type(exc).__name__


class Loop:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.ok = 0
        self.ok_nodes = 0
        self.causes: Counter = Counter()
        self.first_pass: list[str | None] = []
        self.op_nodes: dict[int, int] = {}
        self.probes: list[float] = []
        self.wall = 0.0


def probe_task():
    """The fixed task behind every machine-speed probe."""
    tree = gen.sized_tree(random.Random("probe"), 300, linear=False, faults=0.0, max_depth=12)

    def probe() -> float:
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            ref.evaluate(tree)
            ref.pretty(tree)
            ref.show(tree)
            ref.key(tree)
            best = min(best, time.perf_counter() - began)
        return best * 1000.0

    return probe


def closed_loop(ops, seconds: float, tracer=None, side=(), probe=None) -> Loop:
    """Whole passes over ``ops`` until ``seconds`` of loop time have gone by.

    ``side`` tasks (set-up samples, cold starts) run one at a time between
    ops, spread evenly over the loop so that they meet the same drift in
    machine speed as the ops do; their time is not loop time.  ``probe``
    samples the machine's speed every ``PROBE_EVERY`` s of loop time,
    outside loop time, into ``probes``.
    """
    loop = Loop()
    clock = time.perf_counter
    side = list(side)
    gap = seconds / (len(side) + 1)
    due = gap
    probe_due = PROBE_EVERY
    paused = 0.0
    op_id = 0
    start = clock()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = op_id
                loop.op_nodes[op_id] = op.nodes
            cause = None
            began = clock()
            try:
                out = tracer.call("op", op.run) if tracer is not None else op.run()
            except Exception as exc:  # every failure is tallied, none stops the loop
                cause = classify(exc)
            ended = clock()
            if cause is None and out != op.expect:
                cause = "mismatch"
            loop.attempted += 1
            if op.latency:
                loop.latencies.append((ended - began) * 1000.0)
            if cause is None:
                loop.ok += 1
                loop.ok_nodes += op.nodes
            else:
                loop.causes[cause] += 1
            if op_id < len(ops):
                loop.first_pass.append(cause)
            op_id += 1
            if probe is not None and clock() - start - paused >= probe_due:
                began = clock()
                loop.probes.append(probe())
                paused += clock() - began
                probe_due += PROBE_EVERY
            if side and clock() - start - paused >= due:
                began = clock()
                side.pop(0)()
                paused += clock() - began
                due += gap
        if clock() - start - paused >= seconds:
            break
    loop.wall = clock() - start - paused
    for task in side:
        task()
    return loop


def high_percentile(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile (nearest rank) with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(1, min(99, (100 * (n - 10)) // n))
    rank = max(1, -(-n * pct // 100))
    return ordered[rank - 1], pct


def cold_start(cold, times: list, wrong: list) -> None:
    """Start-to-exit time of one ``python -m phoaskit`` child."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), path]) if path else str(SRC))
    began = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "phoaskit", *cold.argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    times.append((time.perf_counter() - began) * 1000.0)
    if (proc.returncode, proc.stdout) != (cold.code, cold.stdout):
        wrong.append(cold.argv)


def import_times() -> list[float]:
    """``import phoaskit.cli`` in fresh interpreters, in ms."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import phoaskit.cli; print((time.perf_counter() - t) * 1000.0)")
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def setup_sample(workload: str, seed: int, out: list) -> None:
    """Set-up time of a fresh process, which reports its own."""
    proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                           "--setup-only"], cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    out.append(float(proc.stdout.strip().splitlines()[-1]))


def git_commit() -> str:
    """HEAD of the checkout, when the checkout is a git work tree of its own."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "phoaskit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def meta(workload: str, seed: int, pool) -> dict:
    return {
        "workload": workload,
        "why": WHY[workload],
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_digest": src_digest(),
        "inputs_digest": pool.digest,
        "ops_per_pass": len(pool.ops),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float):
    program, pool, own = setup(workload, seed)
    setups, cold, wrong = [own], [], []
    side = [functools.partial(cold_start, c, cold, wrong) for c in pool.cold]
    every = len(side) // (SETUP_SAMPLES - 1)
    for k in range(SETUP_SAMPLES - 1):
        side.insert(k * (every + 1), functools.partial(setup_sample, workload, seed, setups))
    loop = closed_loop(pool.ops, seconds, side=side, probe=probe_task())
    high, pct = high_percentile(loop.latencies)
    raw = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(loop.ok / loop.wall, "ops/s"),
        "nodes_per_s": metric(loop.ok_nodes / loop.wall, "nodes/s"),
        "op_p50_ms": metric(statistics.median(loop.latencies), "ms"),
        "op_p99_ms": metric(high, "ms"),
        "cold_p50_ms": metric(statistics.median(cold), "ms"),
    }
    # speed < 1: the machine ran slower than nominal during this run
    speed = NOMINAL_PROBE_MS / statistics.median(loop.probes)
    metrics = {
        name: metric(m["value"] / speed if m["unit"].endswith("/s") else m["value"] * speed, m["unit"])
        for name, m in raw.items()
    }
    metrics["ok_share"] = metric(loop.ok / loop.attempted, "ratio")
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics = {name: metrics[name] for name in END_TO_END}
    report = {
        "machine_speed": speed,
        "probes": len(loop.probes),
        "unscaled": raw,
        "fail_share": metric((loop.attempted - loop.ok) / loop.attempted, "ratio"),
        "op_p99_ms.percentile": pct,
        "latency_samples": len(loop.latencies),
        "cold_samples": len(cold),
        "cold_wrong": wrong,
        "setup_samples_s": setups,
        "passes": loop.attempted // len(pool.ops),
        "failures": dict(loop.causes),
        "first_pass_failures": dict(Counter(c for c in loop.first_pass if c)),
    }
    correct = loop.causes["mismatch"] == 0 and not wrong
    return correct, loop, metrics, report, pool


def counts_of(workload: str, program, pool, plain: Loop, spans_: list) -> dict:
    """Counts over one pass; they repeat exactly per seed.

    Failures come from the untraced pass, since tracing wrappers add
    stack frames; the rest from the first traced pass.
    """
    first = range(len(pool.ops))
    counts = {
        "nodes": sum(op.nodes for op in pool.ops),
        "failures": dict(sorted(Counter(c for c in plain.first_pass if c).items())),
        "term.builder_runs": 0.0,
        "algebra.visits.staged": 0,
        "algebra.visits.fused": 0,
        "lang.desugar.ir_ratio": 0.0,
        "lang.const_fold.ir_ratio": 0.0,
        "names.compares_per_sort": 0.0,
        "deep.max_ok_length.pretty": 0,
        "deep.max_ok_length.eval_cbv": 0,
        "deep.max_ok_length.eval_fused": 0,
    }
    counts.update(pool.counts)
    runs = [program.builder_runs[i] for i in first if i in program.builder_runs]
    if runs:
        counts["term.builder_runs"] = sum(runs) / len(runs)
    visits = [program.visits[i] for i in first if i in program.visits]
    if visits:
        counts["algebra.visits.staged"] = sum(v[0] for v in visits)
        counts["algebra.visits.fused"] = sum(v[1] for v in visits)
    if workload == "passes":
        batches = {i for i in first if pool.ops[i].kind == "batch"}
        compares = sum(1 for s in spans_ if s[0] == "names.alpha_compare" and s[4] in batches)
        counts["names.compares_per_sort"] = compares / len(batches)
    if workload == "deep":
        for consumer in gen.DEEP_CONSUMERS:
            ok = [op.length for op, cause in zip(pool.ops, plain.first_pass)
                  if op.kind == consumer and cause is None]
            counts[f"deep.max_ok_length.{consumer}"] = max(ok, default=0)
    return counts


def traced(workload: str, seed: int, seconds: float):
    program, pool, _ = setup(workload, seed)
    plain = closed_loop(pool.ops, seconds / 2)
    tracer = spans.Tracer()
    with program.traced(tracer, patch_cli=workload == "cli"):
        loop = closed_loop(pool.ops, seconds / 2, tracer)
    table = spans.layer_table(tracer.spans, loop.op_nodes)
    counts = counts_of(workload, program, pool, plain, tracer.spans)
    imports = import_times()
    layer = {}
    for name, row in table.items():
        if row["us_per_node"] is not None:
            layer[f"{name}.us_per_node"] = row["us_per_node"]
    if "cli.main" in table:
        mains = [(s[2] - s[1]) / 1e6 for s in tracer.spans if s[0] == "cli.main"]
        layer["cli.main.ms_p50"] = statistics.median(mains)
    layer["cli.import_ms"] = statistics.median(imports)
    layer["trace.overhead"] = (loop.attempted / loop.wall) / (plain.attempted / plain.wall)
    layer.update((k, v) for k, v in counts.items() if k not in ("nodes", "failures"))
    mismatched = plain.causes["mismatch"] + loop.causes["mismatch"]
    fused_off = sum(1 for i, (staged, fused) in program.visits.items()
                    if i < len(pool.ops) and fused != pool.ops[i].nodes)
    report = {"layers": table, "counts": counts, "counts_digest": gen.digest_items(sorted(counts.items())),
              "fused_visits_off": fused_off}
    metrics = {name: metric(layer.get(name, 0), _unit(name)) for name in PER_LAYER}
    all_layers = {name: metric(value, _unit(name)) for name, value in sorted(layer.items())}
    report["all_layer_metrics"] = all_layers
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-s{seed}-spans.jsonl.gz")
    correct = mismatched == 0 and fused_off == 0
    return correct, loop, metrics, report, pool


def _unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def print_report(workload, info, metrics, report) -> None:
    print(f"workload {workload}: {info['why']}")
    print("meta " + json.dumps(info))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    if "layers" in report:
        print(f"  {'layer':32s} {'calls':>8s} {'self ms':>10s} {'us/node':>10s}")
        for name, row in report["layers"].items():
            per = "-" if row["us_per_node"] is None else f"{row['us_per_node']:.3f}"
            print(f"  {name:32s} {row['calls']:>8d} {row['self_ms']:>10.1f} {per:>10s}")
        for name, m in report["all_layer_metrics"].items():
            if name not in metrics:
                print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
        print("counts " + json.dumps(report["counts"], sort_keys=True))
        print(f"counts_digest {report['counts_digest']}")
    else:
        for key, value in report.items():
            print(f"  {key}: {json.dumps(value)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            print(setup(args.workload, args.seed)[2])
            return 0
        run = traced if args.trace else end_to_end
        correct, loop, metrics, report, pool = run(args.workload, args.seed, args.seconds)
    except (SetupError, subprocess.CalledProcessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    info = meta(args.workload, args.seed, pool)
    print_report(args.workload, info, metrics, report)
    result = {"correct": correct, "attempted": loop.attempted,
              "failed": loop.attempted - loop.ok, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"meta": info, "report": report, **result}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
