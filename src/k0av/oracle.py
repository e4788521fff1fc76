"""Brute-force reference implementations used to cross-check the main path.

Everything here is deliberately naive and self-contained: reduction,
ideal arithmetic, determinants, and searches are written from scratch so a
bug in the optimized code cannot hide behind shared helpers.  The only
imports from the rest of the package are plain data containers.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, isqrt

from .arith import TorsionSubgroup
from .quadforms import QuadForm


def prime_exponents(n: int) -> dict[int, int]:
    """Trial-division factorization, independent of the main factor cache."""
    if n < 1:
        raise ValueError("positive integers only")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def enumerate_reduced_forms(d: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant d by direct search over
    |b| <= a <= sqrt(|d|/3), with the boundary rules applied literally."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError("not a negative discriminant")
    found = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            found.append(QuadForm(a, b, c))
        a += 1
    return sorted(found, key=lambda f: (f.a, f.b, f.c))


def _principal_value(d: int, x: int, y: int) -> int:
    if d % 4 == 0:
        return x * x + (-d // 4) * y * y
    return x * x + x * y + ((1 - d) // 4) * y * y


def norm_witness_search(
    q: int | Fraction, d: int, t_bound: int = 50, xy_bound: int = 10_000
) -> tuple[int, int, int] | None:
    """Search for (x, y, t) with P(x, y) = q * t^2 where P is the principal
    norm form of discriminant d.  Such a witness certifies that q is a norm
    from the quadratic field; a failed bounded search certifies nothing."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("positive rationals only")
    # q = n / m is a norm iff n*m is; P(x, y) = n*m*t^2 gives q*(t*m)^2
    target0 = q.numerator * q.denominator
    for t in range(1, t_bound + 1):
        target = target0 * t * t
        if d % 4 == 0:
            m = -d // 4
            y = 0
            while m * y * y <= target and y <= xy_bound:
                rest = target - m * y * y
                x = isqrt(rest)
                if x * x == rest and x <= xy_bound:
                    return (x, y, t * q.denominator)
                y += 1
        else:
            # 4*P(x, y) = (2x + y)^2 + |d| y^2
            y = 0
            while -d * y * y <= 4 * target and y <= xy_bound:
                rest = 4 * target + d * y * y
                s = isqrt(rest)
                if s * s == rest and (s - y) % 2 == 0 and abs(s - y) // 2 <= xy_bound:
                    return ((s - y) // 2, y, t * q.denominator)
                y += 1
    return None


def check_witness(q: int | Fraction, d: int, witness: tuple[int, int, int]) -> bool:
    x, y, t = witness
    return Fraction(_principal_value(d, x, y), t * t) == Fraction(q)


def exhaustive_subgroups(n: int) -> list[TorsionSubgroup]:
    """Every subgroup of the n-torsion (Z/n)^2, one per Hermite basis."""

    def divs(m: int) -> list[int]:
        return [k for k in range(1, m + 1) if m % k == 0]

    out = []
    for a in divs(n):
        for d in divs(n):
            for b in range(d):
                if (n // a) * b % d == 0:
                    out.append(TorsionSubgroup(n, ((a, b), (0, d))))
    return out


def _row_echelon_abs_det(mat: list[list[int]]) -> int:
    """Absolute determinant by integer row reduction (Euclidean pivoting)."""
    m = [row[:] for row in mat]
    size = len(m)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if m[r][col] != 0 and (piv is None or abs(m[r][col]) < abs(m[piv][col])):
                piv = r
        if piv is None:
            return 0
        m[col], m[piv] = m[piv], m[col]
        again = True
        while again:
            again = False
            for r in range(col + 1, size):
                if m[r][col]:
                    q = m[r][col] // m[col][col]
                    m[r] = [x - q * y for x, y in zip(m[r], m[col])]
                    if m[r][col]:
                        m[col], m[r] = m[r], m[col]
                        again = True
    det = 1
    for i in range(size):
        det *= m[i][i]
    return abs(det)


def lattice_degree_oracle(rows: Sequence[Sequence[int]], g: int) -> int:
    """Index of the image lattice of a matrix acting diagonally on 2g
    interleaved copies of Z^n: the degree of the induced isogeny."""
    n = len(rows)
    width = 2 * g
    big = [[0] * (n * width) for _ in range(n * width)]
    for i in range(n):
        for j in range(n):
            for s in range(width):
                big[i * width + s][j * width + s] = rows[i][j]
    det = _row_echelon_abs_det(big)
    if det == 0:
        raise ValueError("singular matrix")
    return det


def _naive_reduce_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    d = b * b - 4 * a * c
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            b = b % (2 * a)
            if b > a:
                b -= 2 * a
            c = (b * b - d) // (4 * a)
            continue
        break
    if b < 0 and (a == c or b == -a):
        b = -b
    return (a, b, c)


def ideal_square_class(d: int, triple: tuple[int, int, int]) -> tuple[int, int, int]:
    """Reduced form of the square of the ideal class of (a, b, c), computed
    by squaring the ideal a*Z + g*Z with g = (b + sqrt(d))/2 as a module.
    (That basis is the oriented one: its norm form is (a, b, c) itself.)"""
    a, b, c = triple
    if b * b - 4 * a * c != d:
        raise ValueError("triple has the wrong discriminant")

    def xgcd(x: int, y: int) -> tuple[int, int, int]:
        if y == 0:
            return (abs(x), 1 if x >= 0 else -1, 0)
        g, u, v = xgcd(y, x % y)
        return (g, v, u - (x // y) * v)

    # generators of the squared module in the basis (1, g): g^2 = -ac + b*g
    rows = [(a * a, 0), (0, a), (-a * c, b)]
    g2, u, v = xgcd(a, b)
    wx = -v * a * c  # u*(0, a) + v*(-ac, b) = (wx, g2)
    xs = []
    for x, y in rows:
        quo, rem = divmod(y, g2)
        assert rem == 0
        xs.append(x - quo * wx)
    big_a = 0
    for x in xs:
        big_a = gcd(big_a, x)
    b0 = wx % big_a
    # norm form of the basis (big_a, b0 + g2*g), divided by the module norm
    norm = big_a * g2
    fxx = big_a * big_a
    fxy = 2 * big_a * b0 + b * big_a * g2
    fyy = b0 * b0 + b * b0 * g2 + a * c * g2 * g2
    a2, r1 = divmod(fxx, norm)
    b2, r2 = divmod(fxy, norm)
    c2, r3 = divmod(fyy, norm)
    assert r1 == r2 == r3 == 0
    assert b2 * b2 - 4 * a2 * c2 == d
    return _naive_reduce_triple(a2, b2, c2)


def square_class_triples(d: int) -> set[tuple[int, int, int]]:
    """The square subgroup of the class group as reduced triples, via ideal
    squaring only (no composition)."""
    return {ideal_square_class(d, f.triple()) for f in enumerate_reduced_forms(d)}


def _cert_int(value) -> int:
    """An integer of certificate JSON; a bool or float raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _span(points: set | frozenset, gens: list[tuple[int, int]], mod: int) -> frozenset:
    """The subgroup of (Z/mod)^2 generated by the subgroup `points` and
    `gens`."""
    found = set(points)
    for gx, gy in gens:
        # Add the cosets grown + t*(gx, gy) until t*(gx, gy) is in found.
        grown = frozenset(found)
        x, y = gx % mod, gy % mod
        while (x, y) not in found:
            found.update([((u + x) % mod, (v + y) % mod) for u, v in grown])
            x, y = (x + gx) % mod, (y + gy) % mod
    return frozenset(found)


def check_certificate(payload) -> list[str]:
    """Check a k0-derivation/1 certificate (its JSON, as loaded) by explicit
    point sets, sharing no code with `k0.validate_derivation`; an empty list
    accepts it.

    Every lattice L, the span of its rows over its den, becomes its point
    set L/Z^2: the points (x/mod, y/mod) mod 1, kept as the pairs (x, y)
    mod `mod`, the least common multiple of the level and of every den.  A
    set stands for its lattice only when Z^2 <= L, so that is checked of
    every lattice: the set has [L + Z^2 : Z^2] points, which is den^2 / m
    exactly when Z^2 <= L, with m the gcd of the 2x2 minors of the rows
    (the covolume of their span).
    Then, as sets: each step's containments, trivial intersection, stored
    sum and stated orders, the telescoping of the signed steps to
    [c1] - [c2], and that c1 and c2 have equal size, the stated degree,
    and are killed by the level.
    """
    failures: list[str] = []
    try:
        if payload.get("format") != "k0-derivation/1":
            return ["not a k0-derivation/1 certificate"]
        level = _cert_int(payload["level"])
        degree = payload.get("degree")
        lattices = {"c1": payload["c1"], "c2": payload["c2"]}
        steps = []
        for i, step in enumerate(payload["steps"]):
            for name in ("base", "sub1", "sub2", "sum"):
                lattices[f"step {i}: {name}"] = step[name]
            orders = step.get("orders")
            if orders is not None:
                orders = [_cert_int(o) for o in orders]
            steps.append((_cert_int(step["sign"]), orders))
        shapes = {}
        for name, lat in lattices.items():
            rows = [(_cert_int(x), _cert_int(y)) for x, y in lat["basis"]]
            shapes[name] = (_cert_int(lat["den"]), rows)
        if degree is not None:
            degree = _cert_int(degree)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed certificate: {exc!r}"]
    if level < 1:
        failures.append(f"level {level} is not positive")
    mod = max(level, 1)
    for name, (den, rows) in shapes.items():
        if den < 1:
            return [f"{name}: denominator {den} is not positive"]
        mod = mod * den // gcd(mod, den)

    # A lattice repeats across steps: each distinct (den, rows) is
    # enumerated once, and a failure names its first place.
    known: dict[tuple, tuple[list[tuple[int, int]], frozenset]] = {}
    gens: dict[str, list[tuple[int, int]]] = {}
    points: dict[str, frozenset] = {}
    for name, (den, rows) in shapes.items():
        key = den, tuple(rows)
        if key not in known:
            covol = 0
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    (x0, y0), (x1, y1) = rows[i], rows[j]
                    covol = gcd(covol, x0 * y1 - x1 * y0)
            if covol == 0:
                return [f"{name}: the rows do not span a full-rank lattice"]
            scaled = [(x * (mod // den) % mod, y * (mod // den) % mod) for x, y in rows]
            known[key] = scaled, _span({(0, 0)}, scaled, mod)
            if len(known[key][1]) * covol != den * den:
                failures.append(f"{name} does not contain Z^2")
        gens[name], points[name] = known[key]

    total: dict[frozenset, int] = {}
    for i, (sign, orders) in enumerate(steps):
        base, sub1, sub2, joint = (points[f"step {i}: {name}"] for name in ("base", "sub1", "sub2", "sum"))
        if sign not in (1, -1):
            failures.append(f"step {i}: sign {sign} is not +1/-1")
        if not (base <= sub1 and base <= sub2):
            failures.append(f"step {i}: a subgroup does not contain the base")
        elif orders is not None and orders != [len(sub1) // len(base), len(sub2) // len(base)]:
            failures.append(f"step {i}: stated orders {orders} are not the indices over the base")
        if sub1 & sub2 != base:
            failures.append(f"step {i}: the subgroups do not meet in the base")
        if _span(sub1, gens[f"step {i}: sub2"], mod) != joint:
            failures.append(f"step {i}: the stored sum is not sub1 + sub2")
        for lat, mult in ((base, sign), (joint, sign), (sub1, -sign), (sub2, -sign)):
            total[lat] = total.get(lat, 0) + mult
    c1, c2 = points["c1"], points["c2"]
    total[c1] = total.get(c1, 0) - 1
    total[c2] = total.get(c2, 0) + 1
    if any(total.values()):
        failures.append("the steps do not telescope to [c1] - [c2]")
    if len(c1) != len(c2):
        failures.append(f"c1 has {len(c1)} points and c2 has {len(c2)}")
    elif degree is not None and degree != len(c1):
        failures.append(f"stated degree {degree} is not the size {len(c1)} of c1")
    if level >= 1:
        for name, pts in (("c1", c1), ("c2", c2)):
            if any(x * level % mod or y * level % mod for x, y in pts):
                failures.append(f"{name} is not killed by the level {level}")
    return failures
