"""Lexing, parsing, closedness, annotations and the print round trip."""
from __future__ import annotations

import hashlib
import random
import string

import pytest

from phoaskit.hom import annotations, strip_ann
from phoaskit.lang import example_term, pretty
from phoaskit.names import alpha_eq, struct_show
from phoaskit.surface import (
    NLit,
    NPlus,
    ParseError,
    SrcPos,
    _lex,
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
            out = [(t.kind, t.text, t.pos.line, t.pos.column) for t in _lex(text)]
            outcomes["tokens"] += 1
        except ParseError as err:
            out = (err.message, err.pos.line, err.pos.column)
            outcomes["error"] += 1
        digest.update(repr((text, out)).encode())
    assert min(outcomes.values()) > 1000
    assert digest.hexdigest()[:16] == "6f5dc5579f11865e"


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
