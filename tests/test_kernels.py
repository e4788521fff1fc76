"""Kernels, Cartier duality, and the characteristic-p class map."""

import itertools
import math
import random

import pytest

from k0av.arith import det, factor
from k0av.contexts import CM, CharPEndZ, EndZ, Supersingular
from k0av.errors import ContextMismatchError, KernelInputError, ParseError, SingularMatrixError
from k0av.expr import parse_expression, parse_kernel
from k0av.kernels import (
    KernelSpec,
    class_in_image,
    kernel_class,
    kernel_of_matrix_endo,
    tokenize,
)


def test_deg_p_frozen():
    assert KernelSpec(zp=2, mup=1).deg_p == 1
    assert KernelSpec().deg_p == 0
    assert KernelSpec(mup=1).deg_p == -1
    assert KernelSpec(zp=3, mup=3, coprime=12).deg_p == 0


def test_validation():
    for counts in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(KernelInputError, match="nonnegative"):
            KernelSpec(*counts)
    for coprime in (0, -3):
        with pytest.raises(KernelInputError, match="positive integer"):
            KernelSpec(coprime=coprime)
    # p is the context's, so a coprime part involving it is refused there.
    for ctx in (CharPEndZ(5), Supersingular(5)):
        with pytest.raises(KernelInputError, match="cannot involve p"):
            kernel_class(ctx, KernelSpec(coprime=10))


def test_kernel_of_matrix_endo_frozen():
    ctx = CharPEndZ(5)
    k = kernel_of_matrix_endo([[5]], ctx)
    assert (k.zp, k.mup, k.alphap) == (1, 1, 0)
    assert k.coprime == 1

    k = kernel_of_matrix_endo([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ctx)
    assert k == KernelSpec()

    k = kernel_of_matrix_endo([[1, 0], [0, 6]], CharPEndZ(3))
    assert (k.zp, k.mup) == (1, 1)
    assert k.coprime == 4  # square of the prime-to-p part


def _elementary_divisors(rows):
    # d_k = D_k / D_(k-1), where D_k is the gcd of the k x k minors: the
    # Smith form's diagonal, by its definition rather than by elimination.
    n = len(rows)
    out, prev = [], 1
    for k in range(1, n + 1):
        g = 0
        for r in itertools.combinations(range(n), k):
            for c in itertools.combinations(range(n), k):
                g = math.gcd(g, det([[rows[i][j] for j in c] for i in r]))
        out.append(g // prev)
        prev = g
    return out


def test_kernel_of_matrix_endo_is_the_determinant_formula():
    # Each elementary divisor d contributes ord_p(d) copies of Z/p and mu_p
    # and (prime-to-p part of d)^2; the kernel sums these from det m alone.
    rng = random.Random(8)
    done = 0
    while done < 400:
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 1, 2, 3, 4, 6, 8, 9, 12, -2, -3, -5)) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        p = rng.choice((2, 3, 5, 7, 11))
        e, coprime = 0, 1
        for d in _elementary_divisors(rows):
            while d % p == 0:
                d //= p
                e += 1
            coprime *= d * d
        assert kernel_of_matrix_endo(rows, CharPEndZ(p)) == KernelSpec(e, e, 0, coprime)
        done += 1
    for singular in ([[1, 2], [2, 4]], [[0]]):
        with pytest.raises(SingularMatrixError, match="singular matrix"):
            kernel_of_matrix_endo(singular, CharPEndZ(5))
    with pytest.raises(KernelInputError, match="determinant of a non-square matrix"):
        kernel_of_matrix_endo([[1, 2, 3]], CharPEndZ(5))


def test_matrix_endo_kernels_have_trivial_class():
    # multiplication-by-matrix kernels are self-dual: deg_p = 0 and the
    # coprime order is a perfect square
    rng = random.Random(11)
    for p in (2, 3, 5):
        ctx = CharPEndZ(p)
        done = 0
        while done < 170:
            n = rng.randint(1, 3)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if det(m) == 0:
                continue
            k = kernel_of_matrix_endo(m, ctx)
            assert k.deg_p == 0
            assert kernel_class(ctx, k).is_identity
            # the kernel's order p^(zp + mup + alphap) * coprime is det(m)^2
            assert p ** (k.zp + k.mup + k.alphap) * k.coprime == det(m) ** 2
            done += 1


def test_kernel_class_frozen():
    ctx = CharPEndZ(5)
    frob = kernel_class(ctx, KernelSpec(mup=1))  # kernel of Frobenius
    assert frob.data == (-1, ())
    assert frob.order() is None
    assert kernel_class(ctx, KernelSpec(coprime=12)).data == (0, (3,))
    assert kernel_class(ctx, KernelSpec(zp=1, mup=1)).is_identity
    ver = kernel_class(ctx, KernelSpec(zp=1))  # Verschiebung
    assert ver == frob.inverse()


def test_frobenius_class_has_infinite_order():
    ctx = CharPEndZ(5)
    frob = kernel_class(ctx, KernelSpec(mup=1))
    acc = frob
    for _ in range(100):
        assert not acc.is_identity
        acc = acc * frob


def test_kernel_class_rejects():
    ctx = CharPEndZ(5)
    with pytest.raises(KernelInputError, match="no alpha_p"):
        kernel_class(ctx, KernelSpec(alphap=1))
    # alpha_p is supersingular, where every class is trivial.
    assert kernel_class(Supersingular(5), KernelSpec(alphap=1)).is_identity
    for other in (CM(-20), EndZ(1)):
        with pytest.raises(ContextMismatchError, match="characteristic-p context"):
            kernel_class(other, KernelSpec())


def test_supersingular_kernel_is_not_factored():
    # Every supersingular class is trivial, so a coprime order past the
    # factoring budget still gets its answer; only its p-part is checked.
    semiprime = (10**19 + 51) * (10**19 + 169)
    assert kernel_class(Supersingular(5), KernelSpec(coprime=semiprime)).is_identity
    with pytest.raises(KernelInputError, match="cannot involve p"):
        kernel_class(Supersingular(5), KernelSpec(coprime=5 * semiprime))


def test_kernel_class_additivity_and_duality():
    ctx = CharPEndZ(3)
    rng = random.Random(2)
    for _ in range(300):
        a = KernelSpec(rng.randint(0, 4), rng.randint(0, 4), 0, rng.choice((1, 2, 5, 10, 14)))
        b = KernelSpec(rng.randint(0, 4), rng.randint(0, 4), 0, rng.choice((1, 2, 5, 10, 14)))
        # A composite's kernel adds the counts and multiplies the coprime
        # orders; the Cartier dual swaps Z/p and mu_p.
        composite = KernelSpec(a.zp + b.zp, a.mup + b.mup, 0, a.coprime * b.coprime)
        dual = KernelSpec(a.mup, a.zp, a.alphap, a.coprime)
        assert kernel_class(ctx, composite) == kernel_class(ctx, a) * kernel_class(ctx, b)
        assert kernel_class(ctx, dual) == kernel_class(ctx, a).inverse()


def test_class_in_image_frozen():
    assert class_in_image(5, 5, 6)
    assert not class_in_image(5, 0, 5)
    assert class_in_image(5, -3, factor(25 * 7))
    assert class_in_image(5, 0, 1)


def test_class_in_image_index_two():
    # exactly half of (a, squarefree q) pairs are hit, independently of a
    for p in (2, 5):
        hit = miss = 0
        for a in range(-3, 4):
            for q in range(1, 101):
                if any(q % (r * r) == 0 for r in range(2, 11)):
                    continue
                if class_in_image(p, a, q):
                    hit += 1
                else:
                    miss += 1
                # membership is decided by q alone
                assert class_in_image(p, a, q) == class_in_image(p, 0, q)
        # every p-free squarefree class is hit, every p-divisible one missed
        for q in range(1, 101):
            if any(q % (r * r) == 0 for r in range(2, 11)):
                continue
            assert class_in_image(p, 0, q) == (q % p != 0)
        assert 0 < hit and 0 < miss


def test_parse_kernel_literal():
    spec = parse_kernel("{zp:2, mup:1, alphap:0, coprime:12}")
    assert spec == KernelSpec(zp=2, mup=1, alphap=0, coprime=12)
    assert spec.literal() == "{zp:2, mup:1, coprime:12}"
    assert parse_kernel(spec.literal()) == spec
    assert parse_kernel("{}") == KernelSpec(zp=0, mup=0, alphap=0, coprime=1)
    assert parse_kernel("{}").literal() == "{}"
    assert parse_kernel("  { mup : 3 }  ").mup == 3


def test_parse_kernel_literal_errors():
    cases = [
        ("zp:1", "start with"),
        ("{zp:1", "unterminated"),
        ("{zp:1,}", "trailing comma"),
        ("{frob:1}", "unknown kernel field"),
        ("{zp:1, zp:2}", "duplicate"),
        ("{zp}", "needs"),
        ("{coprime:0}", "positive"),
        ("{} x", "trailing input"),
        ("{zp:1 mup:2}", "expected ','"),
        ("{zp:%}", "unexpected character"),
    ]
    for text, msg in cases:
        with pytest.raises(ParseError, match=msg):
            parse_kernel(text)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_kernel("{frob:1}")
    assert exc.value.pos == 1


def test_kernel_literal_in_an_expression_reads_as_alone():
    # One lexer: a literal inside [1; K] gives the spec K gives alone, for
    # every subset and order of fields, spaced or not.
    values = {"zp": 3, "mup": 0, "alphap": 12, "coprime": 35}
    for size in range(5):
        for keys in itertools.permutations(values, size):
            for sep, colon in ((",", ":"), (" , ", " : "), (",\n", ":\t")):
                literal = "{" + sep.join(f"{k}{colon}{values[k]}" for k in keys) + "}"
                alone = parse_kernel(f" {literal} ")
                assert alone == KernelSpec(**{k: values[k] for k in keys})
                assert parse_kernel(alone.literal()) == alone
                for text in (f"[1;{literal}]", f"[1 ; {literal} ] + [2; 3]"):
                    spec = parse_expression(text).terms[0][1].spec
                    assert spec == alone, text


def test_kernel_literal_unterminated():
    for text in ("[1; {zp:1]", "[1; {zp:1] + [1; {mup:1}]", "[1; {zp:1, ]", "[1; {", "[1; {zp:1"):
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert exc.value.expected == "'}'", text
        assert exc.value.pos == 4, text
    with pytest.raises(ParseError, match="unterminated") as exc:
        parse_kernel("{zp:1")
    assert exc.value.expected == "'}'"


def test_kernel_literal_ascii_digits_only():
    for text in ("{zp:\u0663}", "{coprime:1\u0660}", "{zp:\uff11}"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_kernel(text)
    for text in ("{zp:1_0}", "{zp:+1}", "{zp:-1}", "{zp:1.0}"):
        with pytest.raises(ParseError):
            parse_kernel(text)


_DIGITS = "0123456789"
_WORD = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_SYMBOL = "[];*+-/(){}:,"


def _reference_scan(text):
    """Char by char: the tokens with their offsets, or the offset of the
    first character outside the alphabet."""
    toks, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for run in (_DIGITS, _WORD):
            if c in run:
                j = i
                while j < len(text) and text[j] in run:
                    j += 1
                break
        else:
            if c not in _SYMBOL:
                return None, i
            j = i + 1
        toks.append((text[i:j], i))
        i = j
    return toks + [("", len(text))], None


def test_tokenize_matches_reference_scanner():
    pieces = [*_DIGITS, *"azAZ_", *_SYMBOL, "dual", "coprime", " ", "\n", "\t"]
    rare = ["\u0663", "\uff11", "\u00a0", "\u2003", "$", "%", "\x00", "."]
    rng = random.Random(20261018)
    refused = 0
    for _ in range(3000):
        text = "".join(
            rng.choice(rare) if rng.random() < 0.03 else rng.choice(pieces) for _ in range(rng.randint(0, 16))
        )
        want, bad = _reference_scan(text)
        if bad is not None:
            refused += 1
            with pytest.raises(ParseError, match="unexpected character") as exc:
                tokenize(text)
            assert exc.value.pos == bad and exc.value.message.endswith(repr(text[bad])), text
            continue
        toks = tokenize(text)
        assert list(toks) == [t for t, _ in want], text
        assert [toks.pos(i) for i in range(len(toks))] == [pos for _, pos in want], text
    assert 300 < refused < 2700


def test_bad_character_is_refused_before_the_grammar():
    # "[0; 2]" alone fails at its multiplicity; the stray character wins.
    with pytest.raises(ParseError, match="unexpected character '\\$'") as exc:
        parse_expression("[0; 2] $")
    assert exc.value.pos == 7


def test_kernel_spec_multiset():
    # The spec is the kernel: p comes from the context it meets.
    spec = KernelSpec(zp=1, mup=2, alphap=0, coprime=6)
    assert kernel_class(CharPEndZ(5), spec).data == (-1, (2, 3))
    assert kernel_class(CharPEndZ(7), spec).data == (-1, (2, 3))
    with pytest.raises(KernelInputError, match="cannot involve p"):
        kernel_class(CharPEndZ(3), spec)
