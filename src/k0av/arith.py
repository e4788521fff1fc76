"""Exact integer arithmetic: factorization, factored rationals, the
determinant of a list of integer rows, and rank-2 lattices.  `is_prime` is
written in `_primality` and used from here.

Factoring takes one gcd of n with the product of the primes below 1024,
divides out the primes that gcd names (walking up to its square root), and
calls a cofactor below 1031^2 (1031 is the least prime past 1024) prime
without a test.  A larger cofactor is tested and, when composite, split by
Pollard-Brent rho within a step budget.  `exponent_table` turns a positive
int or Fraction into its sorted (prime, exponent) table, which a
`FactoredRational` wraps and a degree class reads directly.

Conventions:
  * all arithmetic is arbitrary-precision; exactness is preferred over speed
  * matrices act on row vectors; lattices are row spans
  * the Hermite form of a full-rank rank-2 row lattice is [[a, b], [0, d]]
    with a, d > 0 and 0 <= b < d, which is a unique representative

Rank-2 lattice arithmetic is closed-form and lives in one place: `row_hnf`
folds in one generator row at a time with an extended gcd, starting from
zero or from a Hermite basis already in hand, and `left_kernel` reduces
two columns the same way while keeping the row operations.  FracLattice,
the one rank-2 lattice type, is the tuple (den, a, b, d) of
[[a, b], [0, d]]/den and intersects through them; `lattice_index` (with
its containment test) and `lattice_sum` take two lattices as their ints,
and `lattice_is_canonical` tests one lattice's.
TorsionSubgroup, a finite subgroup of (Q/Z)^2, only validates and carries
a (level, Hermite basis) pair, and `FracLattice.from_subgroup` turns it
into the lattice it stands for.  `contains_z2_times(n, a, b, d)` is the
one test that a Hermite basis spans n*Z^2: a subgroup's basis at its
level, and a certificate lattice's at its den.

A float, string or bool where an integer belongs is refused with a
K0Error: in `TorsionSubgroup`'s level and basis, `FracLattice.make`'s den
and `matrix_isogeny_degree`'s g.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt, lcm, prod

from ._primality import is_prime
from ._record import Record, set_field
from .errors import ContextError, DerivationError, K0Error, KernelInputError, SingularMatrixError

# Python 3.10 before 3.10.7 has no int-conversion limit.
int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def printable_int(value: int, what: str) -> int:
    """`value`, when its decimal form fits the interpreter's int-conversion
    limit (`sys.get_int_max_str_digits()`, 0 for none); past it, a K0Error
    that names the limit instead of a ValueError while printing."""
    limit = int_digit_limit()
    # 10**limit has more than 3*limit bits, so shorter values always fit.
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise K0Error(f"{what} has more digits than the limit of {limit} (sys.get_int_max_str_digits())")
    return value


def strict_int(value) -> int:
    """An integer read from certificate JSON.  A float, bool or string
    raises TypeError: `int()` would truncate or parse it, so a stated 3.99
    would pass for 3."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


# Trial division covers the primes below this bound.  `_TRIAL_PRIMES` are
# those primes, and one gcd with their product names the ones dividing n.
# A cofactor with no prime factor below the bound is prime when it is below
# `_PRIME_BELOW`, the square of the least prime past the bound; a larger
# composite cofactor is split by Pollard-Brent rho, whose cost grows with
# the square root of a prime factor rather than with the factor itself.
_TRIAL_BOUND = 1 << 10


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in compress(range(isqrt(n - 1) + 1), sieve):  # reads each flag after smaller p struck it
        sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)
_PRIME_BELOW = next(q for q in count(_TRIAL_BOUND) if is_prime(q)) ** 2
# Rho steps allowed for one integer.  Rho needs about sqrt(p) steps to find
# a prime factor p, so factors up to 10^10, and so every integer below
# 10^20, are found within it with overwhelming probability.
_RHO_BUDGET = 2_000_000
_RHO_BATCH = 128


def _brent_split(n: int, steps: int) -> tuple[int, int]:
    """A proper divisor of the odd composite `n`, found by Pollard-Brent rho
    (Brent, BIT 20, 1980), and what is left of `steps`."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * r
            if steps < 0:
                raise K0Error(
                    f"cannot factor a {n.bit_length()}-bit integer within the budget of "
                    f"{_RHO_BUDGET} Pollard-rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: step through it one value at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    raise AssertionError("rho found no divisor of a composite")  # pragma: no cover


def _rho_exponents(n: int) -> list[tuple[int, int]]:
    """Prime exponents of the odd composite `n`, by rho splitting."""
    primes: list[int] = []
    stack = [n]
    steps = _RHO_BUDGET
    while stack:
        m = stack.pop()
        if is_prime(m):
            primes.append(m)
        else:
            d, steps = _brent_split(m, steps)
            stack += (d, m // d)
    return [(p, primes.count(p)) for p in sorted(set(primes))]


def _refuse_non_positive(value: int | Fraction) -> KernelInputError:
    """The error for factoring a non-positive `value`, which it names."""
    shown = printable_int(value.numerator, "the number to factor")
    if value.denominator != 1:
        shown = f"{shown}/{printable_int(value.denominator, 'the number to factor')}"
    return KernelInputError(f"can only factor positive numbers, got {shown}")


# Sized by reuse: over 18,000 degree queries the hit ratio is 0.62 at
# 32,768 entries (about 11 MB when full) and 0.49 at 1,024; most hits lost
# are small integers seen long before, which the walk below redoes cheaply.
@lru_cache(maxsize=1 << 10)
def _factor_int(n: int) -> tuple[tuple[int, int], ...]:
    if n <= 0:
        raise _refuse_non_positive(n)
    exps: list[tuple[int, int]] = []
    # g is the squarefree product of the trial primes that divide n; walk
    # them in ascending order, dividing each out of n and g, until g is
    # spent.  Once p * p > g, what is left of g is one prime: take it next.
    g = gcd(n, _TRIAL_PRODUCT)
    if g > 1:
        for p in _TRIAL_PRIMES:
            if p * p > g:
                p = g
            if g % p == 0:
                n //= p
                e = 1
                while n % p == 0:
                    n //= p
                    e += 1
                exps.append((p, e))
                g //= p
                if g == 1:
                    break
    # Every prime factor of the cofactor n is past _TRIAL_BOUND, so each
    # sorts after the trial primes, and n below _PRIME_BELOW is prime.
    if n >= _PRIME_BELOW and not is_prime(n):
        exps += _rho_exponents(n)
    elif n > 1:
        exps.append((n, 1))
    return tuple(exps)


def exponent_table(q: Fraction | int) -> tuple[tuple[int, int], ...]:
    """The sorted (prime, exponent) table of a positive int or Fraction:
    the numerator's exponents, and the denominator's negated.  It looks up
    `_factor_int` once for the numerator and once for a denominator past 1."""
    try:
        num, den = q.numerator, q.denominator
    except AttributeError:
        raise KernelInputError(f"can only factor an int or a Fraction, got {type(q).__name__}") from None
    if den == 1:
        return _factor_int(num)
    if num <= 0:
        raise _refuse_non_positive(q)
    # num and den are coprime, so their tables share no prime.
    return tuple(sorted(_factor_int(num) + tuple([(p, -e) for p, e in _factor_int(den)])))


class FactoredRational(Record):
    """A positive rational stored as a sparse map prime -> nonzero exponent."""

    __slots__ = _fields = ("exps",)
    exps: tuple[tuple[int, int], ...]

    def __init__(self, exps: tuple[tuple[int, int], ...]) -> None:
        if list(exps) != sorted(exps) or any(e == 0 for _, e in exps):
            raise KernelInputError("exponent table must be sorted with nonzero exponents")
        _set_exps(self, exps)

    @staticmethod
    def one() -> FactoredRational:
        return _trusted(())

    @staticmethod
    def from_int(n: int) -> FactoredRational:
        return _trusted(_factor_int(n))

    @staticmethod
    def from_fraction(q: Fraction | int | FactoredRational) -> FactoredRational:
        if isinstance(q, FactoredRational):
            return q
        return _trusted(exponent_table(q))

    @staticmethod
    def _from_map(m: Mapping[int, int]) -> FactoredRational:
        return _trusted(tuple(sorted((p, e) for p, e in m.items() if e != 0)))

    def exponent(self, p: int) -> int:
        for q, e in self.exps:
            if q == p:
                return e
        return 0

    def __mul__(self, other: FactoredRational) -> FactoredRational:
        m = dict(self.exps)
        for p, e in other.exps:
            m[p] = m.get(p, 0) + e
        return FactoredRational._from_map(m)

    def __pow__(self, k: int) -> FactoredRational:
        if k == 0:
            return FactoredRational.one()
        return _trusted(tuple([(p, e * k) for p, e in self.exps]))

    def inverse(self) -> FactoredRational:
        return self ** -1

    def __truediv__(self, other: FactoredRational) -> FactoredRational:
        return self * other.inverse()

    def as_fraction(self) -> Fraction:
        out = Fraction(1)
        for p, e in self.exps:
            out *= Fraction(p) ** e
        return out

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"{p}" if e == 1 else f"{p}^{e}" for p, e in self.exps)


_set_exps = FactoredRational.exps.__set__


def _trusted(exps: tuple[tuple[int, int], ...]) -> FactoredRational:
    """A FactoredRational over a table the package built sorted and without
    zero exponents, skipping `__init__`'s check."""
    out = object.__new__(FactoredRational)
    _set_exps(out, exps)
    return out


def factor(n: int) -> FactoredRational:
    """Factor a positive integer; any other raises KernelInputError."""
    if type(n) is not int:
        raise KernelInputError(f"can only factor an int, got {type(n).__name__}")
    return FactoredRational.from_int(n)


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of the square integer matrix with these rows, by
    fraction-free (Bareiss) elimination.  Each entry must be an int: a
    float, string or bool raises KernelInputError, as does an empty, ragged
    or non-square matrix."""
    if not rows:
        raise KernelInputError("empty matrix")
    n = len(rows[0])
    if n == 0 or any(len(r) != n for r in rows):
        raise KernelInputError("ragged matrix")
    if len(rows) != n:
        raise KernelInputError("determinant of a non-square matrix")
    if any(type(x) is not int for r in rows for x in r):
        raise KernelInputError("matrix entries must be integers")
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def matrix_isogeny_degree(rows: Sequence[Sequence[int]], g: int) -> FactoredRational:
    """Degree of the isogeny the integer matrix with these rows induces on a
    dimension-g product: |det|^(2g), as a factored integer."""
    if type(g) is not int:
        raise ContextError("dimension must be an integer")
    if g < 1:
        raise ContextError("dimension must be positive")
    d = det(rows)
    if d == 0:
        raise SingularMatrixError("singular matrix")
    return factor(abs(d)) ** (2 * g)


def row_hnf(
    rows: Iterable[Sequence[int]], start: tuple[int, int, int] = (0, 0, 0)
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Hermite basis [[a, b], [0, d]] of the lattice spanned by the integer
    rows (x, y) and by `start`, a Hermite basis (a, b, d) or zero; rows that
    do not span a full-rank lattice raise SingularMatrixError."""
    # Fold the rows into (a, b), (0, d) one at a time.  With
    # g = u*a + v*x = gcd(a, x), the unimodular [[u, v], [-x/g, a/g]]
    # sends (a, b), (x, y) to (g, u*b + v*y), (0, (a*y - x*b)/g).
    a, b, d = start
    for x, y in rows:
        g, u, v = xgcd(a, x)
        if g:
            a, b, d = g, u * b + v * y, gcd(d, (x * b - a * y) // g)
        else:
            d = gcd(d, y)
        if d:
            b %= d
    if a == 0 or d == 0:
        raise SingularMatrixError("lattice is not full rank")
    return (a, b), (0, d)


def left_kernel(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of {c : c @ rows == 0} for integer rows (x, y)."""
    # Fold the rows with x != 0 into one pivot by row_hnf's unimodular
    # step, each row carrying its coefficient vector c, then fold what is
    # left on y.  The vectors of the rows that reach (0, 0) are a kernel
    # basis, since the pivots left behind are independent.
    m = len(rows)
    pivot, rest = None, []
    for i, (x, y) in enumerate(rows):
        c = [0] * m
        c[i] = 1
        if not x:
            rest.append((y, c))
        elif pivot is None:
            pivot = x, y, c
        else:
            px, py, pc = pivot
            g, u, v = xgcd(px, x)
            p, q = px // g, x // g
            pivot = g, u * py + v * y, [u * s + v * t for s, t in zip(pc, c)]
            rest.append((p * y - q * py, [p * t - q * s for s, t in zip(pc, c)]))
    pivot, kernel = None, []
    for y, c in rest:
        if not y:
            kernel.append(c)
        elif pivot is None:
            pivot = y, c
        else:
            py, pc = pivot
            g, u, v = xgcd(py, y)
            p, q = py // g, y // g
            pivot = g, [u * s + v * t for s, t in zip(pc, c)]
            kernel.append([p * t - q * s for s, t in zip(pc, c)])
    return kernel


def contains_z2_times(n: int, a: int, b: int, d: int) -> bool:
    """Whether n*Z^2 <= span([[a, b], [0, d]]), that is Z^2 <= [[a, b], [0, d]]/n,
    for n >= 1 and a Hermite basis: (n, 0) is (n/a)*(a, b) less a multiple
    of (0, d), and (0, n) a multiple of (0, d)."""
    return not (n % a or n % d or n // a * b % d)


def lattice_index(den: int, a: int, b: int, d: int, bden: int, x: int, y: int, z: int) -> int:
    """[L : B] for L = [[a, b], [0, d]]/den and B = [[x, y], [0, z]]/bden,
    the ratio of the covolumes, or 0 unless B <= L: `member` of B's rows
    (x, y)/bden and (0, z)/bden in L, from one read of both bases."""
    det = bden * a * d
    if (x * den * d) % det or ((y * a - x * b) * den) % det or (z * den * a) % det:
        return 0
    return x * z * den * den // (bden * det)


def lattice_sum(den: int, a: int, b: int, e: int, oden: int, x: int, y: int, z: int) -> tuple[int, int, int, int]:
    """(den, a, b, d) of [[a, b], [0, e]]/den + [[x, y], [0, z]]/oden: `row_hnf`'s
    two folds of the second basis's rows into the first, over the common den."""
    d = lcm(den, oden)
    k, j = d // den, d // oden
    g, u, v = xgcd(a * k, x * j)
    e = gcd(e * k, (x * b - a * y) * k * j // g, z * j)
    b = (u * b * k + v * y * j) % e
    h = gcd(d, g, b, e)
    return d // h, g // h, b // h, e // h


def lattice_is_canonical(den: int, a: int, b: int, d: int) -> bool:
    """Whether the ints (den, a, b, d) are a canonical lattice: den >= 1,
    a > 0, 0 <= b < d and gcd(den, a, b, d) == 1, as `make` returns."""
    return den >= 1 and a > 0 and 0 <= b < d and gcd(den, a, b, d) == 1


class FracLattice(tuple):
    """The lattice [[a, b], [0, d]]/den in Q^2, as the tuple (den, a, b, d)
    of its canonical form: a Hermite basis, 0 <= b < d, and
    gcd(den, a, b, d) == 1.  Equality and hashing are the tuple's, so a
    lattice equals the plain tuple of its ints and is its own dict key.

    The package's one rank-2 lattice type: Hermite reduction (`make`), sum,
    intersection, membership and index.  `index_over` and `+` call the
    closed forms `lattice_index` and `lattice_sum` on both lattices' ints,
    as `k0.validate_derivation` does, so both must be canonical.

    `FracLattice((den, a, b, d))` stores its ints unchecked; `make` reduces
    any rows, and `is_canonical` tests a lattice built by hand.  `from_json`
    reads the shape `to_json` writes in one step, a type test of its five
    ints and then `lattice_is_canonical` on those ints; it builds a
    canonical lattice from them and reduces others by `make`.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        if len(self) != 4:  # a hand-built lattice that `is_canonical` refuses
            return f"FracLattice({tuple(self)!r})"
        return "FracLattice(den={!r}, a={!r}, b={!r}, d={!r})".format(*self)

    @staticmethod
    def make(den: int, rows: Iterable[Sequence[int]], start: tuple[int, int, int] = (0, 0, 0)) -> FracLattice:
        """Lattice spanned by the integer rows (x, y) and `row_hnf`'s
        `start`, divided by den; rows that do not span a full-rank lattice
        raise SingularMatrixError."""
        if type(den) is not int:
            raise DerivationError("lattice denominator must be an integer")
        if den < 1:
            raise DerivationError("lattice denominator must be positive")
        (a, b), (_, d) = row_hnf(rows, start)
        g = gcd(den, a, b, d)
        return FracLattice((den // g, a // g, b // g, d // g))

    @staticmethod
    def unit() -> FracLattice:
        return FracLattice((1, 1, 0, 1))

    @staticmethod
    def from_subgroup(c: TorsionSubgroup) -> FracLattice:
        """The lattice L with C = L/Z^2.  The subgroup's basis is already a
        Hermite basis, so `make` would only divide out the gcd."""
        (a, b), (_, d) = c.basis
        g = gcd(c.level, a, b, d)
        return FracLattice((c.level // g, a // g, b // g, d // g))

    @property
    def is_canonical(self) -> bool:
        """Whether these are four ints that `lattice_is_canonical` takes."""
        try:
            return lattice_is_canonical(*self)
        except TypeError:  # not four integers: gcd refuses floats
            return False

    def member(self, vec: Sequence[int], vec_den: int) -> bool:
        """Whether vec/vec_den lies in self."""
        # den*vec/vec_den = u @ basis has the solution
        # u = den*vec @ adj(basis) / (vec_den*a*d), adj(basis) = [[d, -b], [0, a]].
        den, a, b, d = self
        v0, v1 = vec[0] * den, vec[1] * den
        det = vec_den * a * d
        return (v0 * d) % det == 0 and (v1 * a - v0 * b) % det == 0

    def index_over(self, base: FracLattice) -> int:
        """[self : base] (`lattice_index`); DerivationError unless base <= self."""
        index = lattice_index(*self, *base)
        if not index:
            raise DerivationError("index requested over a non-sublattice")
        return index

    def __add__(self, other: FracLattice) -> FracLattice:
        return FracLattice(lattice_sum(*self, *other))

    def __and__(self, other: FracLattice) -> FracLattice:
        # c @ [mine; theirs] == 0 exactly when c[:2] @ mine == -c[2:] @ theirs
        # is a point of both, and c -> c[:2] @ mine is one-to-one.
        den, a, b, e = self
        oden, x, y, z = other
        d = lcm(den, oden)
        k, j = d // den, d // oden
        a, b, e = a * k, b * k, e * k
        kernel = left_kernel([(a, b), (0, e), (x * j, y * j), (0, z * j)])
        return FracLattice.make(d, [(c0 * a, c0 * b + c1 * e) for c0, c1, _, _ in kernel])

    def to_json(self) -> dict:
        den, a, b, d = self
        return {"den": den, "basis": [[a, b], [0, d]]}

    @staticmethod
    def from_json(data: Mapping) -> FracLattice:
        # The shape `to_json` writes.  Each list's type is tested before it
        # is unpacked, so no iterator is consumed on the way to the general
        # path below.
        try:
            den, basis = data["den"], data["basis"]
            row0, row1 = basis if type(basis) is list else ()
            if type(row0) is type(row1) is list:
                (a, b), (z, d) = row0, row1
                if type(den) is type(a) is type(b) is type(z) is type(d) is int:
                    if z == 0 and lattice_is_canonical(den, a, b, d):
                        return FracLattice((den, a, b, d))
                    return FracLattice.make(den, basis)
        except (KeyError, TypeError, ValueError):
            pass
        try:
            den = strict_int(data["den"])
            rows = [(strict_int(x), strict_int(y)) for x, y in data["basis"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DerivationError(f"malformed lattice: {exc}") from exc
        return FracLattice.make(den, rows)


class TorsionSubgroup(Record):
    """A finite subgroup C of (Q/Z)^2 killed by `level`: the input form of
    `derive_same_degree` and `k0 derive`.

    C corresponds to a lattice L with Z^2 <= L <= (1/level) Z^2 via
    C = L / Z^2.  Since L itself is not integral, `basis` stores the Hermite
    basis of level*L, so level*Z^2 <= span(basis) <= Z^2 and
    |C| = level^2 / det(basis).  Lattice operations are FracLattice's
    (`FracLattice.from_subgroup`).
    """

    __slots__ = _fields = ("level", "basis")
    level: int
    basis: tuple[tuple[int, int], tuple[int, int]]

    def __init__(self, level: int, basis: tuple[tuple[int, int], tuple[int, int]]) -> None:
        try:
            (a, b), (z, d) = basis
        except (TypeError, ValueError):
            raise KernelInputError("basis must be two rows of two entries") from None
        if not (type(level) is type(a) is type(b) is type(z) is type(d) is int):
            raise KernelInputError("level and basis entries must be integers")
        if level < 1:
            raise KernelInputError("level must be a positive integer")
        if z != 0 or a <= 0 or d <= 0 or not 0 <= b < d:
            raise KernelInputError("basis is not in Hermite form")
        if not contains_z2_times(level, a, b, d):
            raise KernelInputError("basis does not contain level * Z^2")
        set_field(self, "level", level)
        set_field(self, "basis", basis)

    @property
    def order(self) -> int:
        (a, _), (_, d) = self.basis
        return self.level * self.level // (a * d)


def count_subgroups(n: int) -> int:
    """Number of subgroups of (Z/n)^2 for n >= 1, the product over the prime
    powers p^e of n of the sum of p^min(i, j) over 0 <= i, j <= e; any
    other n raises KernelInputError, as `factor` does."""
    return prod(
        sum(p ** min(i, j) for i in range(e + 1) for j in range(e + 1)) for p, e in factor(n).exps
    )
