"""Expression parsing, canonical printing, and evaluation."""

import random
import sys
from fractions import Fraction

import pytest

from k0av.contexts import CM, CharPEndZ, EndZ, Supersingular
from k0av.errors import ContextMismatchError, ParseError
from k0av.expr import (
    MAX_NESTING,
    ClassAtom,
    Dual,
    KernelSpec,
    Sum,
    eval_expression,
    parse_expression,
    parse_rational,
    print_expression,
)
from k0av.k0 import K0Element, k0_class


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
    assert eval_expression(ss, parse_expression("[2; 5] - 2*[1; 9]")).is_zero

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


def test_eval_matches_direct_classes():
    ctx = CM(-23)
    node = parse_expression("2*[1; 3] + dual([2; 5])")
    direct = k0_class(ctx, 1, 3).scale(2) + k0_class(ctx, 2, 5).dual()
    assert eval_expression(ctx, node) == direct
