"""Command-line driver for the language pipeline.

One subcommand per pass plus the benchmark:

    pretty | desugar | constfold | eval | show | eq | bench | typed-demo

Expression arguments are taken literally; ``-`` reads standard input and
an argument naming an existing file is read from that file.  Exit status:
0 on success, 1 when evaluation fails (error/stuck), 2 on a parse error
(reported on standard error with its position).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .lang import CORE, FunV, IntV, const_fold, desugar, eval_cbv, eval_fused, pretty
from .names import alpha_eq, struct_show
from .result import Failure
from .surface import ParseError, parse

EXIT_OK = 0
EXIT_EVAL = 1
EXIT_PARSE = 2


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    path = Path(arg)
    try:
        if path.is_file():
            return path.read_text(encoding="utf-8")
    except OSError:
        pass
    return arg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phoaskit",
        description="pretty print, rewrite and evaluate the demo language",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretty", help="parse and pretty print")
    p.add_argument("expr")

    p = sub.add_parser("desugar", help="remove let bindings, then pretty print")
    p.add_argument("expr")
    p.add_argument("--fold", action="store_true", help="also constant fold")

    p = sub.add_parser("constfold", help="constant fold, then pretty print")
    p.add_argument("expr")

    p = sub.add_parser("eval", help="evaluate call by value")
    p.add_argument("expr")
    p.add_argument(
        "--fused",
        action="store_true",
        help="desugar and evaluate in a single traversal",
    )

    p = sub.add_parser("show", help="print the constructor structure")
    p.add_argument("expr")

    p = sub.add_parser("eq", help="decide alpha-equivalence of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("bench", help="staged vs fused evaluation counters")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)

    sub.add_parser("typed-demo", help="run the sorted-core-language demo")

    return parser


def _render_value(result) -> tuple[str, int]:
    if isinstance(result, Failure):
        return f"error: {result.message}", EXIT_EVAL
    value = result.value
    if isinstance(value, IntV):
        return f"Int {value.value}", EXIT_OK
    if isinstance(value, FunV):
        return "<fun>", EXIT_OK
    return str(value), EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as err:
        print(err, file=sys.stderr)
        return EXIT_PARSE


def _dispatch(args: argparse.Namespace) -> int:
    command = args.command
    if command == "pretty":
        print(pretty(parse(_read_input(args.expr))))
        return EXIT_OK
    if command == "desugar":
        t = desugar(parse(_read_input(args.expr)))
        if args.fold:
            t = const_fold(t, CORE)
        print(pretty(t))
        return EXIT_OK
    if command == "constfold":
        print(pretty(const_fold(parse(_read_input(args.expr)))))
        return EXIT_OK
    if command == "eval":
        t = parse(_read_input(args.expr))
        result = eval_fused(t) if args.fused else eval_cbv(desugar(t))
        line, code = _render_value(result)
        print(line)
        return code
    if command == "show":
        print(struct_show(parse(_read_input(args.expr))))
        return EXIT_OK
    if command == "eq":
        t1 = parse(_read_input(args.expr1))
        t2 = parse(_read_input(args.expr2))
        print("equal" if alpha_eq(t1, t2) else "not equal")
        return EXIT_OK
    if command == "bench":
        from .bench import bench_json

        print(bench_json(depth=args.depth, count=args.count, seed=args.seed))
        return EXIT_OK
    if command == "typed-demo":
        from .typed import typed_demo

        print(typed_demo())
        return EXIT_OK
    raise AssertionError(f"unhandled command {command}")


if __name__ == "__main__":
    sys.exit(main())
