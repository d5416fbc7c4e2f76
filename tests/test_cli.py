"""Driver behaviour: outputs, exit codes, input handling."""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phoaskit
from phoaskit import cli
from phoaskit.cli import main
from phoaskit.lang import pretty


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pretty_command(capsys):
    code, out, _ = run(capsys, "pretty", "let x = 2 in (\\y. y + x) 3")
    assert code == 0
    assert out == "(let x1 = 2 in ((\\x2. (x2 + x1)) 3))\n"


def test_eval_success_and_failures(capsys):
    code, out, _ = run(capsys, "eval", "let x = 2 in (\\y. y + x) 3")
    assert (code, out) == (0, "Int 5\n")
    code, out, _ = run(capsys, "eval", "0 + error")
    assert (code, out) == (1, "error: error\n")
    code, out, _ = run(capsys, "eval", "0 + (\\x. x)")
    assert (code, out) == (1, "error: stuck\n")
    code, out, _ = run(capsys, "eval", "\\x. x + 1")
    assert (code, out) == (0, "<fun>\n")


def test_eval_fused_prints_identically(capsys):
    samples = [
        "let x = 2 in (\\y. y + x) 3",
        "0 + error",
        "0 + (\\x. x)",
        "\\x. x",
        "(\\x. x + x) (3 + 4)",
        "let a = 1 in let b = a + a in b + a",
    ]
    for text in samples:
        code1, out1, _ = run(capsys, "eval", text)
        code2, out2, _ = run(capsys, "eval", "--fused", text)
        assert (code1, out1) == (code2, out2)


def test_eval_agrees_across_a_printed_corpus(capsys, corpus):
    for t in corpus[:40]:
        text = pretty(t)
        code1, out1, _ = run(capsys, "eval", text)
        code2, out2, _ = run(capsys, "eval", "--fused", text)
        assert (code1, out1) == (code2, out2)


def test_desugar_and_fold(capsys):
    code, out, _ = run(capsys, "desugar", "let x = 2 in x + 1")
    assert code == 0
    assert "let" not in out
    code, out, _ = run(capsys, "desugar", "--fold", "(1 + 2) + (\\x. x) 0")
    assert code == 0
    assert "(1 + 2)" not in out and "3" in out


def test_constfold_command(capsys):
    code, out, _ = run(capsys, "constfold", "1 + 2")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "constfold", "let x = 1 + 2 in x")
    assert code == 0
    assert "let x1 = 3" in out


def test_show_command(capsys):
    code, out, _ = run(capsys, "show", "let x = 2 in (\\y. y + x) 3")
    assert code == 0
    assert out == "Let (Lit 2) (\\a -> App (Lam (\\b -> Plus b a)) (Lit 3))\n"


def test_eq_command(capsys):
    code, out, _ = run(capsys, "eq", "\\x. x", "\\y. y")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "eq", "\\x. \\y. x", "\\x. \\y. y")
    assert (code, out) == (0, "not equal\n")


def test_parse_errors_exit_2_with_position_on_stderr(capsys):
    code, out, err = run(capsys, "pretty", "(")
    assert code == 2
    assert out == ""
    assert err.startswith("1:1: unexpected end of input")
    code, _, err = run(capsys, "eval", "y")
    assert code == 2
    assert "1:1: unbound identifier 'y'" in err
    limit = sys.get_int_max_str_digits()
    code, _, err = run(capsys, "eval", "1 + " + "9" * (limit + 700))
    assert (code, err) == (2, f"1:5: integer literal over the {limit}-digit limit\n")


def test_resource_failures_exit_3_with_one_line_and_no_traceback(capsys, monkeypatch, tmp_path):
    chain = tmp_path / "chain.txt"
    chain.write_text(" + ".join(["1"] * 1200))
    env = {**os.environ, "PYTHONPATH": str(Path(phoaskit.__file__).resolve().parent.parent)}
    for argv in (["eval", "(\\x. x x) (\\x. x x)"], ["pretty", str(chain)]):
        done = subprocess.run(
            [sys.executable, "-m", "phoaskit", *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stdout) == (3, ""), argv
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert "recursion limit" in done.stderr and "Traceback" not in done.stderr

    def exhausted(t):
        raise MemoryError

    # a result with more digits than int/str conversion allows
    limit = sys.get_int_max_str_digits()
    nines = "9" * (limit - 1)
    doubled = f"let a = {nines} in let b = a + a in let c = b + b in let d = c + c in d + d"
    message = f"phoaskit: int/str conversion limit ({limit} digits) exceeded\n"
    for argv in (["constfold", " + ".join([nines] * 12)], ["eval", doubled], ["eval", "--fused", doubled]):
        assert run(capsys, *argv) == (3, "", message), argv[0]

    monkeypatch.setattr(cli, "pretty", exhausted)
    assert run(capsys, "pretty", "1") == (3, "", "phoaskit: memory limit exceeded\n")

    def other(t):
        raise ValueError("not a conversion")

    monkeypatch.setattr(cli, "pretty", other)
    with pytest.raises(ValueError, match="not a conversion"):
        main(["pretty", "1"])


def test_bench_command_json(capsys):
    code, out, _ = run(capsys, "bench", "--depth", "4", "--count", "5")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["staged_visits", "fused_visits", "staged_ms", "fused_ms"]
    assert data["fused_visits"] <= data["staged_visits"]
    code, out2, _ = run(capsys, "bench", "--depth", "4", "--count", "5", "--seed", "42")
    data2 = json.loads(out2)
    assert data2["staged_visits"] == data["staged_visits"]
    assert data2["fused_visits"] == data["fused_visits"]


def test_bench_seed_changes_the_workload(capsys):
    _, out1, _ = run(capsys, "bench", "--depth", "4", "--count", "5", "--seed", "1")
    _, out2, _ = run(capsys, "bench", "--depth", "4", "--count", "5", "--seed", "2")
    assert json.loads(out1)["fused_visits"] != json.loads(out2)["fused_visits"]


def test_typed_demo_command(capsys):
    code, out, _ = run(capsys, "typed-demo")
    assert code == 0
    assert "4" in out and "100/100" in out


def test_file_and_stdin_inputs(capsys, tmp_path, monkeypatch):
    path = tmp_path / "prog.lam"
    path.write_text("1 + 2", encoding="utf-8")
    code, out, _ = run(capsys, "eval", str(path))
    assert (code, out) == (0, "Int 3\n")

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("40 + 2"))
    code, out, _ = run(capsys, "eval", "-")
    assert (code, out) == (0, "Int 42\n")


def test_the_argument_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "phoaskit":  # subcommand parsers are named "phoaskit <command>"
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "pretty", "1") == (0, "1\n", "")
        assert run(capsys, "eval", "1 + 2") == (0, "Int 3\n", "")
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_importing_the_cli_leaves_typed_and_bench_unloaded():
    # both are imported by their subcommand's handler, so start-up never pays for them
    code = (
        "import phoaskit.cli, sys; "
        "print(sorted(m for m in ('phoaskit.typed', 'phoaskit.bench') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(phoaskit.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[]\n"
