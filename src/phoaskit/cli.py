"""Command-line driver for the language pipeline.

One subcommand per pass plus the benchmark:

    pretty | desugar | constfold | eval | show | eq | bench | typed-demo

Expression arguments are taken literally; ``-`` reads standard input and
an argument naming an existing file is read from that file.  Exit status:
0 on success, 1 when evaluation fails (error/stuck), 2 on a parse error
(reported on standard error with its position), 3 when the recursion limit,
memory or the digit limit of int/str conversion is exceeded (one line on
standard error naming which).
"""
from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .lang import CORE, FunV, IntV, const_fold, desugar, eval_cbv, eval_fused, pretty
from .names import alpha_eq, struct_show
from .result import Failure
from .surface import ParseError, parse
del annotations  # the __future__ feature, which a star import would export

EXIT_OK = 0
EXIT_EVAL = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _parse(arg: str):
    if arg == "-":
        return parse(sys.stdin.read())
    path = Path(arg)
    try:
        if path.is_file():
            return parse(path.read_text(encoding="utf-8"))
    except OSError:
        pass
    return parse(arg)


def _desugar(args: argparse.Namespace) -> str:
    t = desugar(_parse(args.expr))
    return pretty(const_fold(t, CORE) if args.fold else t)


def _eval(args: argparse.Namespace) -> str | Failure:
    t = _parse(args.expr)
    result = eval_fused(t) if args.fused else eval_cbv(desugar(t))
    if isinstance(result, Failure):
        return result
    value = result.value
    if isinstance(value, IntV):
        return f"Int {value.value}"
    return "<fun>" if isinstance(value, FunV) else str(value)


def _bench(args: argparse.Namespace) -> str:
    from .bench import bench_json

    return bench_json(depth=args.depth, count=args.count, seed=args.seed)


def _typed_demo(args: argparse.Namespace) -> str:
    from .typed import typed_demo

    return typed_demo()


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use.

    Each subcommand is registered once, with the handler that returns the
    line it prints, or a :class:`Failure` for exit status 1.  Handlers
    reach the passes through this module's globals when they run.
    """
    parser = argparse.ArgumentParser(
        prog="phoaskit",
        description="pretty print, rewrite and evaluate the demo language",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, run, *exprs: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for expr in exprs:
            p.add_argument(expr)
        return p

    command("pretty", "parse and pretty print", lambda a: pretty(_parse(a.expr)), "expr")
    p = command("desugar", "remove let bindings, then pretty print", _desugar, "expr")
    p.add_argument("--fold", action="store_true", help="also constant fold")
    command(
        "constfold", "constant fold, then pretty print",
        lambda a: pretty(const_fold(_parse(a.expr))), "expr",
    )
    p = command("eval", "evaluate call by value", _eval, "expr")
    p.add_argument(
        "--fused",
        action="store_true",
        help="desugar and evaluate in a single traversal",
    )
    command(
        "show", "print the constructor structure",
        lambda a: struct_show(_parse(a.expr)), "expr",
    )
    command(
        "eq", "decide alpha-equivalence of two expressions",
        lambda a: "equal" if alpha_eq(_parse(a.expr1), _parse(a.expr2)) else "not equal",
        "expr1", "expr2",
    )
    p = command("bench", "staged vs fused evaluation counters", _bench)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    command("typed-demo", "run the sorted-core-language demo", _typed_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = args.run(args)
    except ParseError as err:
        print(err, file=sys.stderr)
        return EXIT_PARSE
    except (RecursionError, MemoryError, ValueError) as err:
        if isinstance(err, RecursionError):
            limit = f"recursion limit ({sys.getrecursionlimit()} frames)"
        elif isinstance(err, MemoryError):
            limit = "memory limit"
        elif "integer string conversion" in str(err):  # past Python's int/str digit limit
            limit = f"int/str conversion limit ({sys.get_int_max_str_digits()} digits)"
        else:
            raise
        print(f"phoaskit: {limit} exceeded", file=sys.stderr)
        return EXIT_RESOURCE
    if isinstance(out, Failure):
        print(f"error: {out.message}")
        return EXIT_EVAL
    print(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
