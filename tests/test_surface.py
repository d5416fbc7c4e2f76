"""Lexing, parsing, closedness, annotations and the print round trip."""
from __future__ import annotations

import hashlib
import random
import string
import time

import pytest

from phoaskit.hom import annotations, strip_ann
from phoaskit.lang import example_term, pretty
from phoaskit.names import alpha_eq, struct_show
from phoaskit.surface import (
    NApp,
    NErr,
    NLam,
    NLet,
    NLit,
    NPlus,
    NVar,
    ParseError,
    SrcPos,
    _lex,
    _position_of,
    parse,
    parse_ann,
    parse_named,
    term_of_named,
)
from phoaskit.term import Term


def test_parse_the_running_example():
    t = parse("let x = 2 in (\\y. y + x) 3")
    assert alpha_eq(t, example_term())


def test_conversion_of_a_hand_built_named_tree():
    from phoaskit.lang import eval_fused
    from phoaskit.result import Failure
    from phoaskit.surface import napp, nerr, nlam, nlet, nlit, nplus, nvar, term_of_named

    ast = nlet("x", nlit(1), nplus(nvar("x"), napp(nlam("y", nvar("y")), nerr())))
    t = term_of_named(ast)
    assert pretty(t) == "(let x1 = 1 in (x1 + ((\\x2. x2) error)))"
    assert eval_fused(t) == Failure("error")


def test_parse_error_construct():
    assert struct_show(parse("error")) == "Err"


def test_unbound_identifier_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("y")
    assert err.value.message == "unbound identifier 'y'"
    assert err.value.pos == SrcPos(1, 1)


def test_the_first_unbound_identifier_in_source_order_is_reported():
    # a syntax error anywhere wins over an unbound identifier before it
    cases = [
        ("(\\x. y) z", SrcPos(1, 6), "unbound identifier 'y'"),
        ("y (", SrcPos(1, 3), "unexpected end of input"),
        ("let x = x in x", SrcPos(1, 9), "unbound identifier 'x'"),
        ("(\\x. x) x", SrcPos(1, 9), "unbound identifier 'x'"),
    ]
    for text, pos, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.pos, err.value.message) == (pos, message), text


def test_closedness_of_a_long_chain_is_checked_without_recursion():
    # the parser loops over a sum or an application spine, and checks names as it goes
    chain = " + ".join(["1"] * 2000)
    ast = parse_named(chain)
    for _ in range(1999):
        assert isinstance(ast, NPlus)
        ast = ast.lhs
    assert ast == NLit(1)
    with pytest.raises(ParseError) as err:
        parse_named(chain + " + y")
    assert (err.value.pos, err.value.message) == (SrcPos(1, 8001), "unbound identifier 'y'")


def test_term_of_named_reports_an_unbound_name_as_the_parser_does():
    from phoaskit.surface import nlam, nlet, nvar

    with pytest.raises(ParseError) as err:
        term_of_named(nlam("x", nvar("y", SrcPos(2, 7))))
    assert (err.value.pos, err.value.message) == (SrcPos(2, 7), "unbound identifier 'y'")
    with pytest.raises(ParseError) as parsed:
        parse_named("\\x. y")
    assert parsed.value.message == err.value.message
    # a let's name is bound in its body only
    with pytest.raises(ParseError) as err:
        term_of_named(nlet("x", nvar("x", SrcPos(1, 9)), nvar("x")))
    assert (err.value.pos, err.value.message) == (SrcPos(1, 9), "unbound identifier 'x'")
    # a value that is not a named tree at all
    with pytest.raises(TypeError, match="not a named tree: 42"):
        term_of_named(42)


def test_term_of_named_builds_a_10000_term_chain_without_recursion():
    n = 10_000
    ast = NLit(1)
    for k in range(1, n):
        ast = NPlus(ast, NLit(1, SrcPos(1, 1 + 4 * k)))
    t = term_of_named(ast, annotate=True)
    lits = [("Lit", SrcPos(1, 1 + 4 * k)) for k in range(n)]
    assert annotations(t) == [("Plus", SrcPos(1, 1))] * (n - 1) + lits
    assert annotations(strip_ann(t)) == [("Plus", None)] * (n - 1) + [("Lit", None)] * n


def test_shadowing_binds_to_the_inner_binder():
    t = parse("\\x. \\x. x")
    want = parse("\\a. \\b. b")
    assert alpha_eq(t, want)
    assert not alpha_eq(t, parse("\\a. \\b. a"))


def test_application_binds_tighter_than_addition():
    assert alpha_eq(parse("\\f. f 1 + 2"), parse("\\f. (f 1) + 2"))
    assert not alpha_eq(parse("\\f. f 1 + 2"), parse("\\f. f (1 + 2)"))


def test_application_and_addition_are_left_associative():
    assert alpha_eq(parse("1 + 2 + 3"), parse("(1 + 2) + 3"))
    assert alpha_eq(parse("\\f. \\x. f x x"), parse("\\f. \\x. (f x) x"))


def test_lambda_and_let_bodies_extend_right():
    assert alpha_eq(parse("\\x. x + 1"), parse("\\x. (x + 1)"))
    assert alpha_eq(
        parse("let x = 1 in x + x"), parse("let x = 1 in (x + x)")
    )


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse("\\let. let")
    with pytest.raises(ParseError):
        parse("in")


def test_positions_in_parse_errors():
    with pytest.raises(ParseError) as err:
        parse("1 + ?")
    assert err.value.pos == SrcPos(1, 5)
    assert "'?'" in err.value.message

    with pytest.raises(ParseError) as err:
        parse("(")
    assert err.value.pos == SrcPos(1, 1)
    assert err.value.message == "unexpected end of input"

    with pytest.raises(ParseError) as err:
        parse("let x = 1 in\n  x +")
    assert err.value.pos.line == 2


def test_trailing_garbage_is_an_error():
    with pytest.raises(ParseError) as err:
        parse("1 2)")
    assert err.value.message == "unexpected token ')'"


def test_parse_pretty_round_trip(corpus):
    for t in corpus:
        assert alpha_eq(parse(pretty(t)), t)


def test_pathological_nesting_is_a_parse_error_not_a_crash():
    for text in ("(" * 5000 + "1" + ")" * 5000, "\\x. " * 5000 + "x"):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "nesting too deep" in err.value.message
    # terms at sensible depth still go through the whole pipeline
    ok = "(" * 150 + "1" + ")" * 150
    assert pretty(parse(ok)) == "1"


def test_parse_is_total_on_fuzzed_inputs():
    rng = random.Random(42)
    alphabet = string.printable + "λé∀"
    outcomes = {"term": 0, "error": 0}
    for i in range(10_000):
        n = rng.randrange(0, 40)
        if i % 2:
            text = "".join(rng.choice(alphabet) for _ in range(n))
        else:
            text = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
        try:
            t = parse(text)
            assert isinstance(t, Term)
            outcomes["term"] += 1
        except ParseError:
            outcomes["error"] += 1
    assert outcomes["term"] + outcomes["error"] == 10_000


def test_lexer_output_is_pinned_on_seeded_strings():
    # every blank, a NUL, a non-ASCII letter, Unicode spaces that are not
    # blanks here, every ASCII symbol and the keywords; a trailing or lone
    # form feed once slipped into an error token
    pieces = list(" \t\r\f\v\n\x00é\x1c\x85\xa0" + string.digits + string.ascii_letters)
    pieces += list(string.punctuation)
    pieces += ["let", "in", "error", "x1", "42"]
    rng = random.Random(5)
    digest = hashlib.sha256()
    outcomes = {"tokens": 0, "error": 0}
    for _ in range(6000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 13)))
        try:
            pos = _position_of(text)
            out = [(kind, lexeme, pos(offset).line, pos(offset).column) for kind, lexeme, offset in _lex(text)]
            outcomes["tokens"] += 1
        except ParseError as err:
            out = (err.message, err.pos.line, err.pos.column)
            outcomes["error"] += 1
        digest.update(repr((text, out)).encode())
    assert min(outcomes.values()) > 1000
    assert digest.hexdigest()[:16] == "6f5dc5579f11865e"


def test_trailing_blank_lines_lex_in_linear_time():
    # the token regex fails at each trailing blank only after eating all of
    # them, so a scan over them is quadratic in their number; the lexer
    # stops before them
    text = "let x = 1 in\n  x" + "\n\r\n \t" * 4000
    start = time.process_time()
    tokens = _lex(text)
    assert time.process_time() - start < 0.5
    assert [kind for kind, _, _ in tokens] == ["let", "ident", "=", "int", "in", "ident", "eof"]
    assert tokens[-1][2] == len(text)
    assert parse_named(text) == NLet("x", NLit(1, SrcPos(1, 9)), NVar("x", SrcPos(2, 3)), SrcPos(1, 1))
    with pytest.raises(ParseError, match=r"^2:3: unexpected token '#'$"):
        parse_named("1 +\n  #" + "\n" * 20_000)


def test_parse_outcomes_are_pinned_on_seeded_token_strings():
    # the named tree, or the error and its position, of token strings that
    # mix syntax errors, unbound identifiers and closed terms
    pieces = ["x", "y", "x", "y", "f", "\\", "\\x.", "\\y.", ".", "(", ")", "let", "in"]
    pieces += ["=", "+", "1", "23", "error", " ", "\n"]
    rng = random.Random(11)
    digest = hashlib.sha256()
    outcomes = {"parsed": 0, "unbound": 0, "syntax": 0}
    for _ in range(20_000):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randrange(1, 12)))
        try:
            out = repr(parse_named(text))
            outcomes["parsed"] += 1
        except ParseError as err:
            out = (err.message, err.pos.line, err.pos.column)
            outcomes["unbound" if err.message.startswith("unbound") else "syntax"] += 1
        digest.update(repr((text, out)).encode())
    assert min(outcomes.values()) > 500
    assert digest.hexdigest()[:16] == "20f651e52e2924ce"


def _naive_positions(text: str) -> list[SrcPos]:
    # the position of every offset, the end of the text included, by a scan
    # over every character
    out, line, column = [], 1, 1
    for ch in text:
        out.append(SrcPos(line, column))
        line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)
    return out + [SrcPos(line, column)]


def _random_lexemes(rng: random.Random, depth: int, scope: list[str]) -> list[str]:
    # a random expression, mostly closed, bracketed wherever it nests
    choice = rng.randrange(7 if depth else 3)
    if choice == 0:
        return [rng.choice(scope or ["w"])]
    if choice == 1:
        return [str(rng.randrange(100))]
    if choice == 2:
        return ["error"]
    name = rng.choice("xyz")
    inner = _random_lexemes(rng, depth - 1, scope)
    if choice == 3:
        return ["(", "\\", name, ".", *_random_lexemes(rng, depth - 1, scope + [name]), ")"]
    if choice == 4:
        body = _random_lexemes(rng, depth - 1, scope + [name])
        return ["(", "let", name, "=", *inner, "in", *body, ")"]
    return ["(", *inner, *(["+"] if choice == 5 else []), *_random_lexemes(rng, depth - 1, scope), ")"]


def _named_leaves(node) -> list:
    # the lexeme and position of every node with a lexeme of its own, in
    # source order; an application or sum must sit at its first child's
    if isinstance(node, (NApp, NPlus)):
        first, second = (node.fn, node.arg) if isinstance(node, NApp) else (node.lhs, node.rhs)
        assert node.pos == first.pos
        return _named_leaves(first) + _named_leaves(second)
    if isinstance(node, NLam):
        return [("\\", node.pos)] + _named_leaves(node.body)
    if isinstance(node, NLet):
        return [("let", node.pos)] + _named_leaves(node.bound) + _named_leaves(node.body)
    if isinstance(node, NVar):
        return [(node.name, node.pos)]
    if isinstance(node, NLit):
        return [(str(node.value), node.pos)]
    assert isinstance(node, NErr)
    return [("error", node.pos)]


def test_positions_agree_with_a_per_character_scan():
    # multi-line texts with \n and \r\n endings, blank and trailing lines,
    # truncated (eof errors), with stray lexemes, unbound names and a literal
    # past the digit limit; the text is built lexeme by lexeme, so the offset
    # of each lexeme is known without lexing it
    rng = random.Random(3)
    separators = [" ", " ", "\n", "\r\n", "  \n\n\t", "\n  "]
    long_literal = "9" * 4400
    outcomes = {"parsed": 0, "eof": 0, "token": 0, "unbound": 0, "digits": 0}
    for _ in range(3000):
        lexemes = _random_lexemes(rng, rng.randrange(5), [])
        mutation = rng.randrange(5)
        if mutation == 1:
            del lexemes[rng.randrange(len(lexemes) + 1):]
        elif mutation == 2:
            lexemes.insert(rng.randrange(len(lexemes) + 1), rng.choice(["#", ")", "in", "λ", "=", "w"]))
        elif mutation == 3 and rng.random() < 0.1:
            lexemes.insert(rng.randrange(len(lexemes) + 1), long_literal)
        text, offsets = rng.choice(["", "\n", " "]), []
        for lexeme in lexemes:
            offsets.append(len(text))
            text += lexeme + rng.choice(separators)
        text += rng.choice(["", "\n", "\r\n", "\n\n"])
        oracle = _naive_positions(text)
        at = [(lexeme, oracle[offset]) for lexeme, offset in zip(lexemes, offsets)]
        try:
            ast = parse_named(text)
        except ParseError as err:
            if err.message == "unexpected end of input":
                assert err.pos == (at[-1][1] if at else oracle[len(text)])
                outcomes["eof"] += 1
            elif err.message.startswith("integer literal over"):
                assert (long_literal, err.pos) in at
                outcomes["digits"] += 1
            else:
                kind, _, name = err.message.rpartition(" ")
                assert kind in ("unexpected token", "unbound identifier")
                assert (name.strip("'"), err.pos) in at
                outcomes["token" if kind == "unexpected token" else "unbound"] += 1
            continue
        binder_names = {i + 1 for i, (lexeme, _) in enumerate(at) if lexeme in ("\\", "let")}
        punctuation = {".", "(", ")", "=", "+", "in"}
        expected = [a for i, a in enumerate(at) if a[0] not in punctuation and i not in binder_names]
        assert _named_leaves(ast) == expected
        outcomes["parsed"] += 1
    assert min(outcomes.values()) > 5 and outcomes["parsed"] > 500


def test_parse_ann_accepts_exactly_the_same_language(corpus):
    good = [pretty(t) for t in corpus[:50]]
    bad = ["", "(", "y", "1 +", "let x = in 2", "\\. x", "error error)", "1 2)("]
    for text in good:
        assert alpha_eq(strip_ann(parse_ann(text)), parse(text))
    for text in bad:
        with pytest.raises(ParseError) as plain:
            parse(text)
        with pytest.raises(ParseError) as annotated:
            parse_ann(text)
        assert str(annotated.value) == str(plain.value)


def test_annotation_of_a_sum_is_its_first_lexeme():
    anns = annotations(parse_ann("1 + 2"))
    assert anns[0] == ("Plus", SrcPos(1, 1))
    assert ("Lit", SrcPos(1, 1)) in anns
    assert ("Lit", SrcPos(1, 5)) in anns


def test_annotation_positions_track_lines():
    anns = dict(annotations(parse_ann("let x = 2 in\n  x + 40")))
    assert anns["Let"] == SrcPos(1, 1)
    assert anns["Plus"] == SrcPos(2, 3)


def test_strip_of_annotated_parse_is_plain_parse(corpus):
    for t in corpus[:50]:
        s = pretty(t)
        assert alpha_eq(strip_ann(parse_ann(s)), parse(s))
