"""Primality and the Jacobi symbol.  `arith.is_prime` is this module's
`is_prime`.

`is_prime` runs strong Miller-Rabin rounds to only as many prime bases as
prove primality for its n, and past the proven range adds a strong Lucas
test (BPSW).
"""

from __future__ import annotations

from math import isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# Miller-Rabin bases, the first thirteen primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_k is the least odd composite that is a strong probable prime to each
# of the first k prime bases (OEIS A014233; Jaeschke, Math. Comp. 61, 1993;
# Sorenson-Webster, Math. Comp. 86, 2017), so for n < psi_k the first k
# bases prove primality.  Where psi_k = psi_(k+1) the smaller k is listed.
# From the last bound on, the thirteen bases are followed by a strong Lucas
# test, which makes the test BPSW.  Each psi_k is written as the product of
# its prime factors: Hypothesis feeds the package's integer literals to its
# strategies, and psi_13 is past the factoring budget.
_MR_BOUNDS = tuple(
    (psi, _MR_BASES[:k])
    for psi, k in (
        (23 * 89, 1),
        (829 * 1657, 2),
        (2251 * 11251, 3),
        (151 * 751 * 28351, 4),
        (6763 * 10627 * 29947, 5),
        (1303 * 16927 * 157543, 6),
        (10670053 * 32010157, 7),
        (149491 * 747451 * 34233211, 9),
        (399165290221 * 798330580441, 12),
        (1287836182261 * 2575672364521, 13),
    )
)


def is_prime(n: int) -> bool:
    """Whether `n` is prime: a proof below 3.3 * 10^24, BPSW from there on."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:  # no prime factor up to 31, so none at all
        return True
    for bound, bases in _MR_BOUNDS:
        if n < bound:
            break
    else:
        bases = _MR_BASES
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    # Below the bound the loop broke at, its bases were a proof.
    return n < bound or _strong_lucas_probable_prime(n)


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas probable-prime test (Baillie-Wagstaff, Math. Comp.
    35, 1980) for odd n > 31 with no prime factor up to 31, with P = 1 and D
    the first of 5, -7, 9, -11, ... with (D/n) = -1 (Selfridge's method A)."""
    if isqrt(n) ** 2 == n:  # no such D exists
        return False
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0:  # n shares a prime with D, and |D| stays far below n
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k and Q^k mod n for k running through the binary digits of d,
    # by U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k and, for k + 1,
    # U = (U + V) / 2, V = (D U + V) / 2 (halved mod n, which is odd).
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False
