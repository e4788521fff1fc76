"""Expression parsing, canonical printing, and evaluation."""

import hashlib
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from k0av.contexts import CM, CharPEndZ, EndZ, Supersingular, make_context
from k0av.errors import ContextMismatchError, ParseError
from k0av.expr import (
    MAX_NESTING,
    ClassAtom,
    Dual,
    KernelSpec,
    Sum,
    eval_expression,
    parse_expression,
    parse_kernel,
    parse_rational,
    print_expression,
)
from k0av.k0 import K0Element, k0_class

from conftest import load_perfbench


def test_parse_frozen():
    assert parse_expression("[1; 2]") == Sum(((1, ClassAtom(1, Fraction(2))),))
    assert parse_expression("[1; 2] - [1; 8]") == Sum(
        ((1, ClassAtom(1, Fraction(2))), (-1, ClassAtom(1, Fraction(8))))
    )
    assert parse_expression("2*[3; 1/2]") == Sum(((2, ClassAtom(3, Fraction(1, 2))),))
    assert parse_expression("dual([1; 5])") == Sum(
        ((1, Dual(Sum(((1, ClassAtom(1, Fraction(5))),)))),)
    )
    assert parse_expression("[1; {zp:2, mup:1, coprime:12}]") == Sum(
        ((1, ClassAtom(1, KernelSpec(zp=2, mup=1, coprime=12))),)
    )
    assert parse_expression("-1*[1; 2] + [1; 3]") == Sum(
        ((-1, ClassAtom(1, Fraction(2))), (1, ClassAtom(1, Fraction(3))))
    )
    # whitespace is free; fractions reduce
    assert parse_expression(" [ 2 ;  4/2 ]") == Sum(((1, ClassAtom(2, Fraction(2))),))


def test_print_frozen():
    s = "3*[2; 5/7] - dual([1; 2]) + [1; {zp:1}]"
    assert print_expression(parse_expression(s)) == s
    assert print_expression(parse_expression("-1*[1;2]")) == "-1*[1; 2]"
    assert print_expression(parse_expression("-3*[1;2]+[1;3]")) == "-3*[1; 2] + [1; 3]"
    assert print_expression(parse_expression("[1;{zp:0, coprime:1}]")) == "[1; {}]"
    assert print_expression(ClassAtom(2, Fraction(3))) == "[2; 3]"
    assert print_expression(Dual(Sum(((1, ClassAtom(1, Fraction(2))),)))) == "dual([1; 2])"


def random_ast(rng, depth=0):
    terms = []
    for _ in range(rng.randint(1, 3)):
        coef = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        if depth < 2 and rng.random() < 0.3:
            atom = Dual(random_ast(rng, depth + 1))
        elif rng.random() < 0.5:
            atom = ClassAtom(rng.randint(1, 5), Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        else:
            atom = ClassAtom(
                rng.randint(1, 5),
                KernelSpec(
                    zp=rng.randint(0, 3),
                    mup=rng.randint(0, 3),
                    alphap=rng.randint(0, 2),
                    coprime=rng.choice((1, 2, 6, 12)),
                ),
            )
        terms.append((coef, atom))
    return Sum(tuple(terms))


def test_parse_print_round_trip():
    rng = random.Random(20260815)
    for _ in range(300):
        ast = random_ast(rng)
        assert parse_expression(print_expression(ast)) == ast


def test_print_is_canonical_fixed_point():
    rng = random.Random(4)
    for _ in range(100):
        s = print_expression(random_ast(rng))
        assert print_expression(parse_expression(s)) == s


def test_parse_errors_frozen():
    cases = [
        ("", 0, "'[' or 'dual'"),
        ("[0; 2]", 1, "positive integer"),
        ("[1; 0]", 4, "positive rational"),
        ("[1; 2", 5, "']'"),
        ("[1 2]", 3, "';' between multiplicity and degree"),
        ("dual[1; 2]", 4, "'(' after dual"),
        ("frob([1; 2])", 0, "'dual'"),
        ("[1; 2] [1; 3]", 7, "'+', '-', or end of input"),
        ("2 [1; 2]", 2, "'*' after coefficient"),
        ("0*[1; 2]", 0, "nonzero integer"),
        ("[1; 2/0]", 4, "positive rational"),
    ]
    for text, pos, expected in cases:
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert exc.value.pos == pos, text
        assert exc.value.expected == expected, text
    # Each way a class atom `[n; a]` or `[n; a/b]` is refused, message included.
    ended = "input ended"
    atoms = [
        ("[", 1, "positive multiplicity", ended),
        ("[1", 2, "';' between multiplicity and degree", ended),
        ("[1;", 3, "rational or kernel literal", ended),
        ("[1; 5", 5, "']'", ended),
        ("[1; 5/", 6, "denominator", ended),
        ("[1; 5/3", 7, "']'", ended),
        ("[0; 5]", 1, "positive integer", "multiplicity must be positive"),
        ("[1; 0]", 4, "positive rational", "degree must be a positive rational"),
        ("[1; 5/0]", 4, "positive rational", "degree must be a positive rational"),
        ("[1 5]", 3, "';' between multiplicity and degree", "found '5'"),
        ("[1; 5/3 5]", 8, "']'", "found '5'"),
        ("[1; 5/]", 6, "denominator", "found ']'"),
        ("[1; /3]", 4, "rational or kernel literal", "found '/'"),
        ("[1; 5/3/2]", 7, "']'", "found '/'"),
        ("[;5]", 1, "positive multiplicity", "found ';'"),
    ]
    limit = sys.get_int_max_str_digits()
    if limit:
        big = "7" * (limit + 1)
        over = (f"at most {limit} digits", f"integer literal has {limit + 1} digits, more than the limit of {limit}")
        atoms += [
            (f"[{big}; 5]", 1, *over),
            (f"[1; {big}]", 4, *over),
            (f"[1; 5/{big}]", 6, *over),
            # The literals are read left to right, each checked as it is read.
            (f"[{big}; 0]", 1, *over),
            (f"[0; {big}]", 1, "positive integer", "multiplicity must be positive"),
            (f"[1; 0/{big}]", 6, *over),
        ]
    for text, pos, expected, message in atoms:
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert (exc.value.pos, exc.value.expected, exc.value.message) == (pos, expected, message), text[:20]
    # Each way a term, an atom or a whole expression is refused, message included.
    deep = "dual(" * (MAX_NESTING + 1) + "[1; 2]" + ")" * (MAX_NESTING + 1)
    rules = [
        ("-[1; 2]", 1, "integer coefficient", "found '['"),
        ("- -[1; 2]", 2, "integer coefficient", "found '-'"),
        ("2*", 2, "'[' or 'dual'", ended),
        ("dual", 4, "'(' after dual", ended),
        ("dual([", 6, "positive multiplicity", ended),
        ("dual([1; 2]", 11, "')'", ended),
        ("frob", 0, "'dual'", "unknown name 'frob'"),
        ("[1; 2] +", 8, "'[' or 'dual'", ended),
        ("[1; {zp:1]", 4, "'}'", "unterminated kernel literal"),
        ("[1; {zp:1}", 10, "']'", ended),
        (deep, 5 * MAX_NESTING, "shallower nesting", f"dual(...) nested deeper than {MAX_NESTING}"),
    ]
    if limit:
        rules.append((f"{big}*[1; 2]", 0, *over))
    for text, pos, expected, message in rules:
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert (exc.value.pos, exc.value.expected, exc.value.message) == (pos, expected, message), text[:20]


def test_kernel_literal_errors_frozen():
    # Each refusal of `parse_kernel_literal`, read through `parse_kernel`.
    fields = "':' and an integer"
    cases = [
        ("{", 0, "'}'", "unterminated kernel literal"),
        ("{zp", 3, fields, "field 'zp' needs ': <integer>'"),
        ("{zp:", 3, fields, "field 'zp' needs ': <integer>'"),
        ("{zp:1", 0, "'}'", "unterminated kernel literal"),
        ("{zp:1,}", 6, None, "trailing comma in kernel literal"),
        ("{zp:1 mup:1}", 6, "',' or '}'", "expected ',' or '}' after kernel field"),
        ("{zp:1, zp:2}", 7, None, "duplicate kernel field 'zp'"),
        ("{frob:1}", 1, "zp, mup, alphap or coprime", "unknown kernel field 'frob'"),
        ("{coprime:0}", 0, None, "coprime order must be positive"),
        ("zp:1}", 0, "'{'", "kernel literal must start with '{'"),
        ("{zp:1}}", 6, "end of input", "trailing input '}'"),
    ]
    for text, pos, expected, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_kernel(text)
        assert (exc.value.pos, exc.value.expected, exc.value.message) == (pos, expected, message), text


def test_trailing_whitespace_is_free():
    assert parse_expression("[1; 3] \n") == parse_expression("[1; 3]")


def test_parse_rational():
    assert parse_rational("15") == 15
    assert parse_rational(" 6 / 4 ") == Fraction(3, 2)
    for text, pos in (("1.5", 1), ("1e3", 1), ("-3", 0), ("0", 0), ("3/0", 0), ("", 0), ("{zp:1}", 0)):
        with pytest.raises(ParseError) as exc:
            parse_rational(text)
        assert exc.value.pos == pos, text


def test_kernel_literal_error_position_is_global():
    with pytest.raises(ParseError) as exc:
        parse_expression("[1; {frob:1}]")
    assert exc.value.pos == 5
    assert "unknown kernel field" in exc.value.message
    with pytest.raises(ParseError) as exc:
        parse_expression("[1; {zp:1]")
    assert exc.value.expected == "'}'"


def test_bad_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("[1; 2] $")


def test_eval_frozen():
    ctx = EndZ(2)
    out = eval_expression(ctx, parse_expression("[1; 2] - [1; 8]"))
    assert out.n == 0
    assert out.deg.data == ((2, 2),)

    ss = Supersingular(7)
    assert eval_expression(ss, parse_expression("[2; 5] - 2*[1; 9]")) == K0Element(0, ss.identity())

    cm = CM(-20)
    out = eval_expression(cm, parse_expression("[1; 29] - [1; 1]"))
    assert out.n == 0 and out.deg.is_identity

    chp = CharPEndZ(5)
    out = eval_expression(chp, parse_expression("[1; {mup:1}]"))
    assert out.n == 1 and out.deg.data == (-1, ())


def test_eval_kernel_literal_needs_char_p():
    node = parse_expression("[1; {zp:1}]")
    assert eval_expression(CharPEndZ(3), node).deg.data == (1, ())
    assert eval_expression(Supersingular(3), node).deg.is_identity
    with pytest.raises(ContextMismatchError, match="characteristic-p"):
        eval_expression(EndZ(2), node)
    with pytest.raises(ContextMismatchError):
        eval_expression(CM(-20), node)


def test_eval_commutes_with_dual():
    rng = random.Random(6)
    ctx = EndZ(3)
    for _ in range(100):
        ast = random_ast(rng)
        # strip kernel atoms: dual testing here targets the char-0 path
        def fraction_only(node):
            if isinstance(node, Sum):
                return Sum(tuple((c, fraction_only(a)) for c, a in node.terms))
            if isinstance(node, Dual):
                return Dual(fraction_only(node.inner))
            if isinstance(node.spec, KernelSpec):
                return ClassAtom(node.n, Fraction(node.spec.coprime))
            return node

        ast = fraction_only(ast)
        assert eval_expression(ctx, Dual(ast)) == eval_expression(ctx, ast).dual()


def test_eval_one_term_and_empty_sum():
    for ctx in (EndZ(2), CM(-20), CharPEndZ(5)):
        assert eval_expression(ctx, Sum(())) == K0Element(0, ctx.identity())
        for coef in (1, -1, 3):
            node = Sum(((coef, ClassAtom(2, Fraction(6, 7))),))
            assert eval_expression(ctx, node) == k0_class(ctx, 2, Fraction(6, 7)).scale(coef)
        one = parse_expression("[2; 3]")
        assert eval_expression(ctx, one) == k0_class(ctx, 2, 3)


def test_dual_nesting_limit():
    deep = "dual(" * MAX_NESTING + "[1; 2]" + ")" * MAX_NESTING
    assert eval_expression(EndZ(1), parse_expression(deep)) == k0_class(EndZ(1), 1, 2)
    too_deep = "dual(" + deep + ")"
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}") as exc:
        parse_expression(too_deep)
    assert exc.value.pos == 5 * MAX_NESTING


def test_integer_literal_digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter sets no int-conversion limit")
    big = "7" * (limit + 1)
    for text, pos in (
        (f"[{big}; 2]", 1),
        (f"{big}*[1; 2]", 0),
        (f"-{big}*[1; 2]", 1),
        (f"[1; {big}]", 4),
        (f"[1; 2/{big}]", 6),
        (f"[1; {{coprime:{big}}}]", 13),
    ):
        with pytest.raises(ParseError, match=f"limit of {limit}") as exc:
            parse_expression(text)
        assert exc.value.pos == pos, text
    assert parse_expression(f"[1; {'7' * limit}]").terms[0][1].spec == int("7" * limit)


def test_degree_query_answers_pinned():
    # The benchmark's `eval --equals` queries, read from perfbench's
    # workloads.py compiled from its text (no bytecode is written next to
    # it): the SHA-256 of each query's [x == y, x.to_json(), y.to_json()]
    # over the first 3,000 queries of seed 101 pins every answer's bytes.
    workloads = load_perfbench("workloads")
    inputs = workloads.make_degree_query(101)
    contexts = [make_context(spec) for spec in inputs["contexts"]]
    digest = hashlib.sha256()
    for ci, left, right, _ in inputs["queries"][:3000]:
        x = eval_expression(contexts[ci], parse_expression(left))
        y = eval_expression(contexts[ci], parse_expression(right))
        digest.update(json.dumps([x == y, x.to_json(), y.to_json()]).encode())
    assert digest.hexdigest() == "1d58a19893dc4193ad12c35515d39dbe2573d7b32adef85130d65ca09edfc7ac"


# Characters a mutation draws from: the digits, the symbols, a space, '_'
# and the letters of the grammar's names.
MUTATION_ALPHABET = "0123456789[];*+-/(){}:, _adeilmoprtuz"
DEGREE_TEXT = re.compile(r"\[[^\[\];]*;([^\]]*)\]")


def _mutations(rng, text):
    """Three copies of `text`, each with one character deleted, inserted or
    replaced."""
    out = []
    for _ in range(3):
        at = rng.randrange(len(text) + 1)
        kind = rng.choice(("delete", "insert", "replace"))
        char = rng.choice(MUTATION_ALPHABET)
        if kind == "insert" or at == len(text):
            out.append(text[:at] + char + text[at:])
        elif kind == "delete":
            out.append(text[:at] + text[at + 1 :])
        else:
            out.append(text[:at] + char + text[at + 1 :])
    return out


def _read(digest, parse, text, render=str):
    """Hash what `parse` makes of `text`: the rendering of its result, or
    the (pos, expected, message) of its refusal."""
    try:
        seen = ["ok", render(parse(text))]
    except ParseError as exc:
        seen = ["refused", exc.pos, exc.expected, exc.message]
    digest.update(json.dumps(seen).encode())


def test_parser_corpus_pinned():
    # The degree-query expressions of seed 101, as in
    # test_degree_query_answers_pinned, and three seeded one-character
    # mutations of each; then every class atom's degree text read alone by
    # `parse_rational` and by `parse_kernel`.  One SHA-256 pins each result
    # and each refusal.
    workloads = load_perfbench("workloads")
    rng = random.Random(29)
    texts = []
    for _, left, right, _ in workloads.make_degree_query(101)["queries"][:3000]:
        for side in (left, right):
            texts += [side, *_mutations(rng, side)]
    digest = hashlib.sha256()
    for text in texts:
        _read(digest, parse_expression, text, print_expression)
    for text in texts:
        for degree in DEGREE_TEXT.findall(text):
            _read(digest, parse_rational, degree)
            _read(digest, parse_kernel, degree, KernelSpec.literal)
    assert len(texts) == 24000
    assert digest.hexdigest() == "539168a44baf802a6d2b37c13f199e364845ffd0b0984fea7cb7a6fea7a13bec"


def test_degree_query_evaluation_builds_no_factored_rational(monkeypatch):
    # The first 400 benchmark queries of seed 1, with the contexts' lazy
    # data built first, as the benchmark builds it.  A degree class reads
    # the exponent table, so no FactoredRational is built, and `_factor_int`
    # is looked up as often as when each rational atom built one (one
    # lookup per numerator, one per denominator past 1, and those of
    # `_prime_mask`'s misses): 1,292 times, counted before that change.
    from k0av import arith
    from k0av.contexts import _prime_mask

    inputs = load_perfbench("workloads").make_degree_query(1)
    _prime_mask.cache_clear()
    contexts = [make_context(spec) for spec in inputs["contexts"]]
    for ctx in contexts:
        ctx.structure()
    built = []
    trusted = arith._trusted
    monkeypatch.setattr(arith, "_trusted", lambda exps: built.append(exps) or trusted(exps))
    monkeypatch.setattr(arith.FactoredRational, "__init__", lambda self, exps: built.append(exps))
    arith._factor_int.cache_clear()
    for ci, left, right, _ in inputs["queries"][:400]:
        eval_expression(contexts[ci], parse_expression(left)) == eval_expression(contexts[ci], parse_expression(right))
    info = arith._factor_int.cache_info()
    assert built == []
    assert info.hits + info.misses == 1292


def test_eval_matches_direct_classes():
    ctx = CM(-23)
    node = parse_expression("2*[1; 3] + dual([2; 5])")
    direct = k0_class(ctx, 1, 3).scale(2) + k0_class(ctx, 2, 5).dual()
    assert eval_expression(ctx, node) == direct
