"""Kernels of isogenies in characteristic p, up to Jordan-Holder multiset.

A finite group scheme killed by a power of p decomposes into copies of the
constant scheme Z/p, its Cartier dual mu_p, and the self-dual alpha_p, plus a
prime-to-p etale part recorded by its order.  Ordinary curves admit no
alpha_p; it only occurs supersingularly, where degree classes vanish anyway.
"""

from __future__ import annotations

import re

from ._record import Record, set_field
from .arith import FactoredRational, IntMatrix, int_digit_limit, smith_normal_form
from .contexts import CharPEndZ, DegreeClass
from .errors import KernelInputError, ParseError, excerpt

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
    factor away from p."""
    d, _, _ = smith_normal_form(m)
    p = ctx.p
    pp = 0
    coprime = FactoredRational.one()
    for di in d.diagonal():
        e = 0
        while di % p == 0:
            di //= p
            e += 1
        pp += e
        coprime = coprime * FactoredRational.from_int(di) ** 2
    return KernelMultiset(p, et_p=pp, mu_p=pp, coprime=coprime)


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


_KERNEL_KEYS = ("zp", "mup", "alphap", "coprime")


def int_literal(digits: str, pos: int) -> int:
    """Value of a decimal literal at `pos`.  A literal longer than the
    interpreter's int-conversion limit (`sys.get_int_max_str_digits()`, 0 for
    none) is refused with a ParseError that names the limit."""
    limit = int_digit_limit()
    if limit and len(digits) > limit:
        raise ParseError(
            f"integer literal has {len(digits)} digits, more than the limit of {limit}",
            pos,
            f"at most {limit} digits",
        )
    return int(digits)


_TOKEN = re.compile(r"\s*([a-z]+|\d+|[{}:,])")


def parse_kernel_literal(text: str) -> dict[str, int]:
    """Parse `{zp:2, mup:1, alphap:0, coprime:12}`; fields optional, at most
    once each; returns counts with defaults zp=mup=alphap=0, coprime=1."""
    pos = 0
    tokens: list[tuple[str, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise ParseError(f"bad character {stripped[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()

    def fail(i: int, msg: str, expected: str | None = None) -> ParseError:
        at = tokens[i][1] if i < len(tokens) else len(text)
        return ParseError(msg, at, expected)

    if not tokens or tokens[0][0] != "{":
        raise fail(0, "kernel literal must start with '{'", "'{'")
    out: dict[str, int] = {}
    i = 1
    while True:
        if i >= len(tokens):
            raise fail(i, "unterminated kernel literal", "'}'")
        if tokens[i][0] == "}":
            i += 1
            break
        key = tokens[i][0]
        if key not in _KERNEL_KEYS:
            raise fail(i, f"unknown kernel field {excerpt(key)}", "zp, mup, alphap or coprime")
        if key in out:
            raise fail(i, f"duplicate kernel field {key!r}")
        if i + 2 >= len(tokens) or tokens[i + 1][0] != ":" or not tokens[i + 2][0].isdigit():
            raise fail(i + 1, f"field {key!r} needs ': <integer>'", "':' and an integer")
        out[key] = int_literal(*tokens[i + 2])
        i += 3
        if i < len(tokens) and tokens[i][0] == ",":
            i += 1
            if i < len(tokens) and tokens[i][0] == "}":
                raise fail(i, "trailing comma in kernel literal")
        elif i < len(tokens) and tokens[i][0] != "}":
            raise fail(i, "expected ',' or '}' after kernel field", "',' or '}'")
    if i != len(tokens):
        raise fail(i, "trailing input after kernel literal")
    if out.get("coprime", 1) < 1:
        raise fail(0, "coprime order must be positive")
    return {
        "zp": out.get("zp", 0),
        "mup": out.get("mup", 0),
        "alphap": out.get("alphap", 0),
        "coprime": out.get("coprime", 1),
    }


def kernel_from_counts(p: int, counts: dict[str, int]) -> KernelMultiset:
    return KernelMultiset(
        p,
        et_p=counts["zp"],
        mu_p=counts["mup"],
        alpha_p=counts["alphap"],
        coprime=FactoredRational.from_int(counts["coprime"]),
    )
