"""Kernels of isogenies in characteristic p, up to Jordan-Holder multiset.

A finite group scheme killed by a power of p decomposes into copies of the
constant scheme Z/p, its Cartier dual mu_p, and the self-dual alpha_p, plus a
prime-to-p etale part recorded by its order.  Ordinary curves admit no
alpha_p; it only occurs supersingularly, where degree classes vanish anyway.
"""

from __future__ import annotations

import re
from itertools import islice

from ._record import Record, set_field
from .arith import FactoredRational, IntMatrix, int_digit_limit
from .contexts import CharPEndZ, DegreeClass
from .errors import KernelInputError, ParseError, SingularMatrixError, excerpt

_ONE = FactoredRational.one()


class KernelMultiset(Record):
    """Multiset of simple constituents of a p-power-torsion kernel together
    with the order of its prime-to-p part."""

    __slots__ = _fields = ("p", "et_p", "mu_p", "alpha_p", "coprime")
    p: int
    et_p: int
    mu_p: int
    alpha_p: int
    coprime: FactoredRational

    def __init__(
        self, p: int, et_p: int = 0, mu_p: int = 0, alpha_p: int = 0, coprime: FactoredRational = _ONE
    ) -> None:
        if min(et_p, mu_p, alpha_p) < 0:
            raise KernelInputError("constituent counts must be nonnegative")
        if not coprime.is_integer:
            raise KernelInputError("coprime part must be a positive integer")
        if coprime.exponent(p) != 0:
            raise KernelInputError("coprime part of a kernel cannot involve p")
        set_field(self, "p", p)
        set_field(self, "et_p", et_p)
        set_field(self, "mu_p", mu_p)
        set_field(self, "alpha_p", alpha_p)
        set_field(self, "coprime", coprime)

    @property
    def deg_p(self) -> int:
        """Etale-minus-multiplicative count; isogeny-multiplicative and
        negated by duality."""
        return self.et_p - self.mu_p

    @property
    def order(self) -> FactoredRational:
        total = self.et_p + self.mu_p + self.alpha_p
        return FactoredRational.from_int(self.p) ** total * self.coprime if total else self.coprime

    def combine(self, other: KernelMultiset) -> KernelMultiset:
        """Multiset union: the kernel of a composite of the two isogenies."""
        if self.p != other.p:
            raise KernelInputError("kernels live over different characteristics")
        return KernelMultiset(
            self.p,
            self.et_p + other.et_p,
            self.mu_p + other.mu_p,
            self.alpha_p + other.alpha_p,
            self.coprime * other.coprime,
        )

    def cartier_dual(self) -> KernelMultiset:
        """Dual isogeny's kernel: swaps etale and multiplicative parts."""
        return KernelMultiset(self.p, self.mu_p, self.et_p, self.alpha_p, self.coprime)


def cartier_dual(k: KernelMultiset) -> KernelMultiset:
    return k.cartier_dual()


def kernel_of_matrix_endo(m: IntMatrix, ctx: CharPEndZ) -> KernelMultiset:
    """Kernel multiset of the endomorphism an integer matrix induces on a
    power of an ordinary curve: each elementary divisor d contributes
    ord_p(d) copies of both Z/p and mu_p and a (prime-to-p part)^2 etale
    factor away from p.  Summed over the divisors, that is ord_p(det m)
    copies of each and the square of the prime-to-p part of |det m|, so
    only the determinant is needed."""
    det = abs(m.det()) if m.is_square else 0
    if det == 0:
        raise SingularMatrixError("singular matrix")
    p = ctx.p
    e = 0
    while det % p == 0:
        det //= p
        e += 1
    return KernelMultiset(p, et_p=e, mu_p=e, coprime=FactoredRational.from_int(det) ** 2)


def kernel_class(ctx: CharPEndZ, k: KernelMultiset) -> DegreeClass:
    """Degree class of an isogeny with kernel k: (deg_p, odd square classes
    of the prime-to-p order)."""
    if k.p != ctx.p:
        raise KernelInputError("kernel characteristic differs from context")
    if k.alpha_p > 0:
        raise KernelInputError("ordinary curve has no alpha_p constituents")
    return DegreeClass(ctx, ctx.kernel_data(k.deg_p, k.coprime))


def class_in_image(p: int, a: int, q: FactoredRational | int) -> bool:
    """Whether the pair (a, q) in Z x (positive rationals mod squares) is the
    invariant of some kernel: exactly when ord_p(q) is even."""
    q = FactoredRational.from_fraction(q)
    return q.exponent(p) % 2 == 0


_KERNEL_DEFAULTS = {"zp": 0, "mup": 0, "alphap": 0, "coprime": 1}


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
    Offsets are found only when an error needs one."""

    __slots__ = ("text",)

    def pos(self, i: int) -> int:
        """Offset of token i in the text; the end's is len(text)."""
        m = next(islice(_TOKEN.finditer(self.text), i, None), None)
        return len(self.text) if m is None else m.start()

    def value(self, i: int) -> int:
        """Value of token i as an integer literal, which `int_literal` refuses
        with its messages unless it is digits within the digit limit."""
        t = self[i]
        limit = int_digit_limit()
        if t.isdigit() and not (limit and len(t) > limit):
            return int(t)  # ASCII: the lexer admits no other digits
        return int_literal(t, self.pos(i))


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


def parse_kernel_literal(toks: Tokens, i: int) -> tuple[dict[str, int], int]:
    """Parse `{zp:2, mup:1, alphap:0, coprime:12}` starting at toks[i];
    fields optional, at most once each.  Returns the counts, with defaults
    zp=mup=alphap=0, coprime=1, and the index of the token after '}'."""
    start = i
    if toks[i] != "{":
        raise ParseError("kernel literal must start with '{'", toks.pos(i), "'{'")
    out: dict[str, int] = {}
    i += 1
    while (key := toks[i]) != "}":
        if key in _ENDS_KERNEL:
            raise ParseError("unterminated kernel literal", toks.pos(start), "'}'")
        if key not in _KERNEL_DEFAULTS:
            raise ParseError(f"unknown kernel field {excerpt(key)}", toks.pos(i), "zp, mup, alphap or coprime")
        if key in out:
            raise ParseError(f"duplicate kernel field {key!r}", toks.pos(i))
        # toks ends with "", so toks[i + 2] exists whenever toks[i + 1] is ':'.
        if toks[i + 1] != ":" or not toks[i + 2].isdigit():
            raise ParseError(f"field {key!r} needs ': <integer>'", toks.pos(i + 1), "':' and an integer")
        out[key] = toks.value(i + 2)
        i += 3
        sep = toks[i]
        if sep == ",":
            i += 1
            if toks[i] == "}":
                raise ParseError("trailing comma in kernel literal", toks.pos(i))
        elif sep != "}" and sep not in _ENDS_KERNEL:
            raise ParseError("expected ',' or '}' after kernel field", toks.pos(i), "',' or '}'")
        # Any other token fails the next pass's first check: unterminated.
    if out.get("coprime", 1) < 1:
        raise ParseError("coprime order must be positive", toks.pos(start))
    return {**_KERNEL_DEFAULTS, **out}, i + 1


def kernel_from_counts(p: int, counts: dict[str, int]) -> KernelMultiset:
    return KernelMultiset(
        p,
        et_p=counts["zp"],
        mu_p=counts["mup"],
        alpha_p=counts["alphap"],
        coprime=FactoredRational.from_int(counts["coprime"]),
    )
