"""Binary-quadratic-form kernels: the package's one implementation.

Pure Python in arbitrary precision.  Forms are (a, b, c) triples with
a > 0 and b^2 - 4ac < 0.
"""

from __future__ import annotations

from math import gcd

from ._primality import jacobi
from .arith import xgcd


def kronecker(a: int, n: int) -> int:
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    return result * jacobi(a, n)


def reduce_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss reduction of a positive-definite form."""
    while True:
        if b > a or b <= -a:
            # normalize: shift b into (-a, a]
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if b < 0 and a == c:
        b = -b
    return a, b, c


def compose_triples(
    a1: int, b1: int, c1: int, a2: int, b2: int, c2: int
) -> tuple[int, int, int]:
    """Dirichlet composition of two forms of the same discriminant, reduced."""
    d = b1 * b1 - 4 * a1 * c1
    beta = (b1 + b2) // 2
    g1, _, y1 = xgcd(a1, a2)
    e, x2, t = xgcd(g1, beta)
    # e = r*a1 + s*a2 + t*beta; only s (the a2 coefficient) and t are needed.
    s = x2 * y1
    a3 = (a1 // e) * (a2 // e)
    # b3 solves b3 == b1 (mod 2 a1/e), b3 == b2 (mod 2 a2/e), b3^2 == d (mod 4 a3)
    b3 = b2 + 2 * (a2 // e) * (s * ((b1 - b2) // 2) - t * c2)
    b3 %= 2 * a3
    c3, rem = divmod(b3 * b3 - d, 4 * a3)
    assert rem == 0, "composition congruence failed"
    return reduce_triple(a3, b3, c3)


def reduced_forms_disc(d: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms of discriminant d < 0, sorted by (a, b)."""
    out: list[tuple[int, int, int]] = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b - d) % 2 != 0:
                continue
            t = b * b - d
            if t % (4 * a) != 0:
                continue
            c = t // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            out.append((a, b, c))
        a += 1
    out.sort()
    return out
