"""Kernels of isogenies in characteristic p, up to Jordan-Holder multiset.

A finite group scheme killed by a power of p decomposes into copies of the
constant scheme Z/p, its Cartier dual mu_p, and the self-dual alpha_p, plus a
prime-to-p etale part recorded by its order.  Ordinary curves admit no
alpha_p; it only occurs supersingularly, where degree classes vanish anyway.

A kernel is a `KernelSpec`: the three counts and the prime-to-p order, with
no p.  The literal `{zp:2, mup:1, alphap:0, coprime:12}` reads as one, with
the constructor's defaults for absent fields.  The context supplies p, and
`kernel_class` is the one place where a kernel meets it.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import islice

from ._record import Record, set_field
from .arith import DegreeLike, _factor_int, det, exponent_table, int_digit_limit, printable_int
from .contexts import CharPEndZ, DegreeClass, IsogenyContext, Supersingular
from .errors import ContextMismatchError, KernelInputError, ParseError, SingularMatrixError, excerpt


class KernelSpec(Record):
    """A kernel up to Jordan-Holder multiset: the counts of Z/p, mu_p and
    alpha_p and the order of the prime-to-p part, each an int (a float,
    string or bool is refused).  The field names and `__init__` defaults
    are the kernel literal's keys and defaults."""

    __slots__ = _fields = ("zp", "mup", "alphap", "coprime")
    zp: int
    mup: int
    alphap: int
    coprime: int

    def __init__(self, zp: int = 0, mup: int = 0, alphap: int = 0, coprime: int = 1) -> None:
        if not (type(zp) is type(mup) is type(alphap) is type(coprime) is int):
            raise KernelInputError("kernel fields must be integers")
        if min(zp, mup, alphap) < 0:
            raise KernelInputError("constituent counts must be nonnegative")
        if coprime < 1:
            raise KernelInputError("coprime part must be a positive integer")
        set_field(self, "zp", zp)
        set_field(self, "mup", mup)
        set_field(self, "alphap", alphap)
        set_field(self, "coprime", coprime)

    @property
    def deg_p(self) -> int:
        """Etale-minus-multiplicative count; isogeny-multiplicative and
        negated by Cartier duality, which swaps zp and mup."""
        return self.zp - self.mup

    def literal(self) -> str:
        """Canonical literal: the fields that differ from their defaults, in
        field order; `parse_kernel` reads it back to an equal spec.  A field
        past the int-conversion limit is refused (`arith.printable_int`)."""
        values = zip(self._fields, self._values(self._fields), KernelSpec.__init__.__defaults__)
        fields = (f"{k}:{printable_int(v, f'kernel field {k}')}" for k, v, default in values if v != default)
        return "{" + ", ".join(fields) + "}"


def _characteristic(ctx: IsogenyContext) -> int:
    """The p of a context that takes kernels: `Supersingular` or `CharPEndZ`."""
    if not isinstance(ctx, (Supersingular, CharPEndZ)):
        raise ContextMismatchError("kernel input requires a characteristic-p context")
    return ctx.p


def kernel_of_matrix_endo(rows: Sequence[Sequence[int]], ctx: CharPEndZ) -> KernelSpec:
    """Kernel of the endomorphism the integer matrix with these rows induces
    on a power of an ordinary curve: each elementary divisor d contributes
    ord_p(d) copies of both Z/p and mu_p and a (prime-to-p part)^2 etale
    factor away from p.  Summed over the divisors, that is ord_p(det) copies
    of each and the square of the prime-to-p part of |det|, so only the
    determinant is needed."""
    p = _characteristic(ctx)
    d = abs(det(rows))
    if d == 0:
        raise SingularMatrixError("singular matrix")
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return KernelSpec(zp=e, mup=e, coprime=d * d)


def kernel_class(ctx: IsogenyContext, k: KernelSpec) -> DegreeClass:
    """Degree class of an isogeny with kernel k, the one place a kernel meets
    a characteristic: the context must take kernels (`_characteristic`),
    and the coprime order must be prime to its p.  Supersingular classes are
    trivial, so only `CharPEndZ` factors the coprime order: its class is
    (deg_p, odd-exponent primes of that order), and alpha_p is refused."""
    if k.coprime % _characteristic(ctx) == 0:
        raise KernelInputError("coprime part of a kernel cannot involve p")
    if isinstance(ctx, Supersingular):
        return ctx.identity()
    if k.alphap > 0:
        raise KernelInputError("ordinary curve has no alpha_p constituents")
    odd = tuple([q for q, e in _factor_int(k.coprime) if e % 2])
    return DegreeClass(ctx, (k.deg_p, odd))


def class_in_image(p: int, a: int, q: DegreeLike) -> bool:
    """Whether the pair (a, q) in Z x (positive rationals mod squares) is the
    invariant of some kernel: exactly when ord_p(q) is even.  q is a positive
    int (not a bool), Fraction or FactoredRational, read through
    `exponent_table`, which refuses any other q as `degree_class` does."""
    return all(e % 2 == 0 for r, e in exponent_table(q) if r == p)


def int_literal(digits: str, pos: int) -> int:
    """Value of a decimal literal at `pos`: ASCII digits only, so `int()`'s
    underscores, signs, whitespace and other Unicode digits are refused.  A
    literal longer than the interpreter's int-conversion limit
    (`sys.get_int_max_str_digits()`, 0 for none) is refused with a
    ParseError that names the limit."""
    if not (digits.isdigit() and digits.isascii()):
        raise ParseError(f"bad integer literal {excerpt(digits)}", pos, "ASCII digits")
    limit = int_digit_limit()
    if limit and len(digits) > limit:
        raise ParseError(
            f"integer literal has {len(digits)} digits, more than the limit of {limit}",
            pos,
            f"at most {limit} digits",
        )
    return int(digits)


# The one lexer for every literal the package reads: expressions, kernel
# literals, degrees and subgroup bases.  It lives here so that `expr`, which
# imports this module, and `parse_kernel_literal` share it without a cycle.
_SYMBOLS = "[];*+-/(){}:,"
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_]+|\S")
# The first character outside the grammar's alphabet: ASCII digits, letters
# and '_', the symbols, and whitespace.
_STRAY = re.compile(r"[^\s0-9A-Za-z_" + re.escape(_SYMBOLS) + "]")


class Tokens(list):
    """The tokens of `text` as plain strings, ending with "" for the end.
    Offsets are found only when an error needs one; `error` and `found`
    build each rule's ParseError, and `value` a bad integer literal's."""

    __slots__ = ("text",)

    def pos(self, i: int) -> int:
        """Offset of token i in the text; the end's is len(text)."""
        m = next(islice(_TOKEN.finditer(self.text), i, None), None)
        return len(self.text) if m is None else m.start()

    def error(self, i: int, message: str, expected: str | None = None) -> ParseError:
        """A ParseError at token i."""
        return ParseError(message, self.pos(i), expected)

    def found(self, i: int, expected: str) -> ParseError:
        """A ParseError that names token i, which is not `expected`."""
        t = self[i]
        return self.error(i, f"found {excerpt(t)}" if t else "input ended", expected)

    def value(self, i: int) -> int:
        """Value of token i as an integer literal, which `int_literal` refuses
        with its messages unless it is digits within the digit limit."""
        try:
            # A token is ASCII digits, letters and '_', or one symbol, so
            # `int` reads exactly the digit tokens within the digit limit.
            return int(self[i])
        except ValueError:
            return int_literal(self[i], self.pos(i))


def tokenize(text: str) -> Tokens:
    """Tokens of `text`; a character outside the alphabet is refused first."""
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray[0]!r}", stray.start(), "expression syntax")
    toks = Tokens([*_TOKEN.findall(text), ""])
    toks.text = text
    return toks


# Tokens that cannot occur inside a kernel literal; reaching one before the
# closing '}' leaves the literal unterminated.
_ENDS_KERNEL = frozenset(_SYMBOLS).difference("{}:,").union([""])


def parse_kernel_literal(toks: Tokens, i: int) -> tuple[KernelSpec, int]:
    """Parse `{zp:2, mup:1, alphap:0, coprime:12}` starting at toks[i];
    fields optional, at most once each.  Returns the `KernelSpec`, whose
    defaults fill the absent fields, and the index of the token after '}'."""
    start = i
    if toks[i] != "{":
        raise toks.error(i, "kernel literal must start with '{'", "'{'")
    out: dict[str, int] = {}
    i += 1
    while (key := toks[i]) != "}":
        if key in _ENDS_KERNEL:
            raise toks.error(start, "unterminated kernel literal", "'}'")
        if key not in KernelSpec._fields:
            *first, last = KernelSpec._fields
            raise toks.error(i, f"unknown kernel field {excerpt(key)}", f"{', '.join(first)} or {last}")
        if key in out:
            raise toks.error(i, f"duplicate kernel field {key!r}")
        # toks ends with "", so toks[i + 2] exists whenever toks[i + 1] is ':'.
        if toks[i + 1] != ":" or not toks[i + 2].isdigit():
            raise toks.error(i + 1, f"field {key!r} needs ': <integer>'", "':' and an integer")
        out[key] = toks.value(i + 2)
        i += 3
        sep = toks[i]
        if sep == ",":
            i += 1
            if toks[i] == "}":
                raise toks.error(i, "trailing comma in kernel literal")
        elif sep != "}" and sep not in _ENDS_KERNEL:
            raise toks.error(i, "expected ',' or '}' after kernel field", "',' or '}'")
        # Any other token fails the next pass's first check: unterminated.
    # Checked before the constructor, whose refusal carries no position.
    if out.get("coprime", 1) < 1:
        raise toks.error(start, "coprime order must be positive")
    return KernelSpec(**out), i + 1
