"""Exact arithmetic: factorization, factored rationals, normal forms, and
torsion-subgroup lattices."""

import random
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0av import _formcore, _primality, arith, oracle
from k0av._primality import _MR_BOUNDS, _strong_lucas_probable_prime, jacobi
from k0av.arith import (
    FactoredRational,
    FracLattice,
    TorsionSubgroup,
    count_subgroups,
    det,
    factor,
    is_prime,
    left_kernel,
    matrix_isogeny_degree,
    row_hnf,
    strict_int,
    xgcd,
)
from k0av.errors import DerivationError, K0Error, KernelInputError, SingularMatrixError

from conftest import basis, contains, covolume


def test_factor_frozen():
    assert dict(factor(12).exps) == {2: 2, 3: 1}
    assert dict(factor(1).exps) == {}
    assert dict(factor(97).exps) == {97: 1}


def test_factor_matches_trial_division_oracle():
    for n in list(range(1, 500)) + [2**31 - 1, 600851475143, 97 * 89 * 83]:
        assert dict(factor(n).exps) == oracle.prime_exponents(n)


def test_factor_splits_large_cofactors():
    # Trial division alone ran for minutes on two 10-digit prime factors.
    cases = {
        1000000007 * 1000000009: {1000000007: 1, 1000000009: 1},
        1031**3 * 1033: {1031: 3, 1033: 1},
        2**4 * 1000003**2 * 1000033: {2: 4, 1000003: 2, 1000033: 1},
        (2**31 - 1) * (2**61 - 1): {2**31 - 1: 1, 2**61 - 1: 1},
    }
    for n, exps in cases.items():
        assert dict(factor(n).exps) == exps
        assert list(factor(n).exps) == sorted(exps.items())
    for n in [1031 * 1033 * k for k in range(1, 400)]:
        assert dict(factor(n).exps) == oracle.prime_exponents(n)


def test_factor_refuses_past_its_budget():
    p, q = 10**19 + 51, 10**19 + 169  # primes: a 40-digit balanced semiprime
    assert is_prime(p) and is_prime(q)
    with pytest.raises(K0Error, match="budget of .* Pollard-rho steps"):
        factor(p * q)


def test_factor_cache_is_bounded():
    # The benchmark tracer reads cache_info(), so it stays an lru_cache.
    maxsize = arith._factor_int.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize <= 1 << 10


def _oracle_primes(lo, hi):
    return [p for p in range(lo, hi) if oracle.prime_exponents(p) == {p: 1}]


def _oracle_table(n):
    return tuple(sorted(oracle.prime_exponents(n).items()))


def test_trial_stage_matches_oracle():
    near = _oracle_primes(1000, 1101)
    limit = 1031 * 1031
    ns = list(range(1, 5000))
    ns += range(limit - 1000, limit + 1001)
    ns += [p * q for p in near for q in near]
    ns += [p * p * q for p in near for q in near]
    ns += [1021**k * 1031**j for k in range(4) for j in range(4)]
    for n in ns:
        got = arith._factor_int(n)
        assert got == _oracle_table(n), n
        assert list(got) == sorted(got), n


def test_trial_stage_on_the_product_of_all_trial_primes():
    # Trial division by the oracle would take too long on these.
    primes = _oracle_primes(2, 1024)
    product = prod(primes)
    table = tuple((p, 1) for p in primes)
    assert arith._factor_int(product) == table
    assert arith._factor_int(product * (2**61 - 1)) == table + ((2**61 - 1, 1),)
    assert arith._factor_int(product**2 * 1031) == tuple((p, 2) for p in primes) + ((1031, 1),)


def test_trial_walk_stops_at_the_root_of_the_gcd():
    # p^a * q^b for trial primes p < q, whose table is known by
    # construction; q is the prime the walk reads off once p * p > g.
    # Then the same times 1031, the least prime past the trial bound, and
    # times the least prime past `_PRIME_BELOW`, a cofactor that is tested.
    factor_uncached = arith._factor_int.__wrapped__
    primes = arith._TRIAL_PRIMES
    big = 1062977
    assert oracle.prime_exponents(big) == {big: 1}
    assert _oracle_primes(arith._PRIME_BELOW, big) == []
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            for a in (1, 2):
                for b in (1, 2):
                    n, table = p**a * q**b, ((p, a), (q, b))
                    assert factor_uncached(n) == table, n
                    for r in (1031, big):
                        assert factor_uncached(n * r) == table + ((r, 1),), n * r


def test_trial_primes_are_the_primes_below_the_bound():
    assert arith._TRIAL_BOUND == 1024
    assert arith._TRIAL_PRIMES == tuple(_oracle_primes(2, 1024))
    assert len(arith._TRIAL_PRIMES) == 172
    for n in range(2, 300):
        assert arith._primes_below(n) == tuple(_oracle_primes(2, n)), n


def test_no_primality_test_below_the_square_of_the_next_prime(monkeypatch):
    nxt = next(q for q in range(1022, 2048) if oracle.prime_exponents(q) == {q: 1})
    assert arith._PRIME_BELOW == nxt * nxt
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting_is_prime)
    factor_uncached = arith._factor_int.__wrapped__
    for n in (1, 2, 1021, 1031, 1021 * 1031, 2**10 * 3**5 * 1033, 7 * (nxt * nxt - 2)):
        assert factor_uncached(n) == _oracle_table(n)
    assert calls == []
    assert factor_uncached(nxt * nxt) == ((nxt, 2),)
    assert calls[0] == nxt * nxt


def test_factoring_refuses_non_positive_input_with_a_library_error():
    for fn in (factor, FactoredRational.from_int, FactoredRational.from_fraction, arith._factor_int):
        for n in (0, -1, -12):
            with pytest.raises(KernelInputError, match=f"positive numbers, got {n}$"):
                fn(n)
    for q in (Fraction(-3, 4), Fraction(0), Fraction(-5)):
        with pytest.raises(KernelInputError, match=f"got {q}$"):
            FactoredRational.from_fraction(q)
    if arith.int_digit_limit():  # a value too long to print names the limit
        with pytest.raises(K0Error, match="limit"):
            factor(-(10 ** (arith.int_digit_limit() + 1)))


def test_is_prime_includes_all_witness_bases():
    # regression: bases dividing n must not be treated as witnesses
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert is_prime(p)
    assert not is_prime(1)
    assert not is_prime(37 * 37)
    assert is_prime(2**61 - 1)


def test_is_prime_matches_oracle_on_range():
    for n in range(1, 3000):
        assert is_prime(n) == (oracle.prime_exponents(n) == {n: 1} if n > 1 else False)


def _strong_probable_prime(n, a):
    """Whether the odd n > 2 passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


_FIRST_PRIMES = [p for p in range(2, 50) if oracle.prime_exponents(p) == {p: 1}]

# OEIS A014233: psi_k, the least odd composite that is a strong probable
# prime to each of the first k prime bases, for k = 1..13.
_PSI = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]
_PSI12, _PSI13 = _PSI[11], _PSI[12]


def test_is_prime_refuses_every_bound_of_its_table(monkeypatch):
    # Each bound is psi_k for the least k it is psi_k of, and takes the
    # first k bases.  psi_k passes those bases, so it is refused only
    # because the bound is strict: n = psi_k runs more of them.
    assert [psi for psi, _ in _MR_BOUNDS] == sorted(set(_PSI))
    for psi, bases in _MR_BOUNDS:
        k = _PSI.index(psi) + 1
        assert list(bases) == _FIRST_PRIMES[:k]
        assert all(_strong_probable_prime(psi, a) for a in bases), psi
        assert not is_prime(psi), psi
    # Below the last bound the bases decide alone, without the Lucas test.
    monkeypatch.setattr(_primality, "_strong_lucas_probable_prime", lambda n: True)
    for psi, _ in _MR_BOUNDS[:-1]:
        assert not is_prime(psi), psi


def test_is_prime_on_the_pseudoprimes_past_twelve_bases():
    # Both passed the twelve fixed bases that is_prime ran before.
    assert _PSI12 == 399165290221 * 798330580441
    assert _PSI13 == 1287836182261 * 2575672364521
    assert not is_prime(_PSI12) and not is_prime(_PSI13)
    assert dict(factor(_PSI12).exps) == {399165290221: 1, 798330580441: 1}
    with pytest.raises(K0Error, match="budget of .* Pollard-rho steps"):
        factor(_PSI13)


def test_is_prime_matches_oracle_around_small_bounds():
    for psi, _ in _MR_BOUNDS[:4]:
        for n in range(psi - 200, psi + 201):
            assert is_prime(n) == (oracle.prime_exponents(n) == {n: 1}), n


def test_is_prime_past_the_table_is_bpsw():
    mersenne = [2**89 - 1, 2**107 - 1, 2**127 - 1]
    for i, p in enumerate(mersenne):
        assert p > _PSI13 and is_prime(p)
        for q in mersenne[i:]:
            assert not is_prime(p * q)
    # No D has (D/n) = -1 for a square n, so the Lucas test refuses squares
    # before it searches.
    assert not _strong_lucas_probable_prime((2**89 - 1) ** 2)


def test_strong_lucas_pseudoprimes_below_10_5():
    # OEIS A217255: the odd composites that pass the strong Lucas test with
    # Selfridge's parameters; each also has no prime factor up to 31.
    candidates = [n for n in range(37, 10**5, 2) if all(n % p for p in _FIRST_PRIMES[1:11])]
    passing = {n for n in candidates if _strong_lucas_probable_prime(n)}
    primes = {n for n in candidates if oracle.prime_exponents(n) == {n: 1}}
    assert primes <= passing
    assert sorted(passing - primes) == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]


def _euler_symbol(a, p):
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_jacobi_and_kronecker_match_euler_criterion():
    for n in range(1, 300):
        factors = oracle.prime_exponents(n)
        for a in range(-60, 61):
            want = 1
            for p, e in factors.items():
                if p == 2:
                    s = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
                else:
                    s = _euler_symbol(a % p, p)
                want *= s**e
            assert _formcore.kronecker(a, n) == want, (a, n)
            # (a/-1) is the sign of a, and (a/0) is 1 exactly for a = +-1
            assert _formcore.kronecker(a, -n) == (want if a >= 0 else -want), (a, -n)
            if n == 1:
                assert _formcore.kronecker(a, 0) == (1 if a in (1, -1) else 0), a
            if n % 2:
                assert jacobi(a, n) == want, (a, n)


def test_factored_rational_group_law():
    two = FactoredRational.from_int(2)
    assert (two * two.inverse()).exps == ()
    a = FactoredRational.from_fraction(Fraction(12))
    b = FactoredRational.from_int(3)
    assert dict((a * b).exps) == {2: 2, 3: 2}
    assert dict(FactoredRational.from_int(125).inverse().exps) == {5: -3}


def test_factored_rational_fraction_round_trip():
    for q in (Fraction(3, 4), Fraction(1), Fraction(100, 7), Fraction(9, 25)):
        assert FactoredRational.from_fraction(q).as_fraction() == q


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_factored_rational_homomorphism(q1, q2):
    a = FactoredRational.from_fraction(q1)
    b = FactoredRational.from_fraction(q2)
    assert (a * b).as_fraction() == q1 * q2
    assert (a / b).as_fraction() == q1 / q2
    assert (a**3).as_fraction() == q1**3


@given(st.integers(1, 10**12), st.integers(1, 10**12))
@settings(max_examples=200, deadline=None)
def test_from_fraction_is_numerator_over_denominator(a, b):
    q = Fraction(a, b)
    expected = FactoredRational.from_int(q.numerator) * FactoredRational.from_int(q.denominator).inverse()
    got = FactoredRational.from_fraction(q)
    assert got == expected
    assert got.exps == FactoredRational(got.exps).exps  # a table the checked constructor accepts


def test_matrix_isogeny_degree_frozen():
    assert matrix_isogeny_degree([[5]], 1).as_fraction() == 25
    assert matrix_isogeny_degree([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2) == FactoredRational.one()
    assert matrix_isogeny_degree([[1, 1], [0, 3]], 1).as_fraction() == 9


def test_matrix_isogeny_degree_vs_oracle():
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        g = rng.randint(1, 3)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        assert matrix_isogeny_degree(rows, g).as_fraction() == oracle.lattice_degree_oracle(rows, g)
        checked += 1


@pytest.mark.parametrize("entry", [1.5, "7", True], ids=["float", "str", "bool"])
def test_det_refuses_entries_that_are_not_ints(entry):
    # int() would truncate 1.5 and parse "7"; True would count as 1.
    with pytest.raises(KernelInputError, match="matrix entries must be integers"):
        det([[entry, 0], [0, 1]])
    with pytest.raises(KernelInputError, match="matrix entries must be integers"):
        det([[entry]])


def test_matrix_isogeny_degree_refuses_a_float_entry():
    with pytest.raises(KernelInputError, match="matrix entries must be integers"):
        matrix_isogeny_degree([[1.5, 0], [0, 1]], 1)


def test_matrix_isogeny_degree_singular():
    with pytest.raises(SingularMatrixError):
        matrix_isogeny_degree([[0]], 1)


def test_row_hnf_canonical():
    assert row_hnf([[2, 4], [0, 3]]) == ((2, 1), (0, 3))
    assert row_hnf([[0, 3], [2, 4], [2, 7], [-4, -8]]) == ((2, 1), (0, 3))
    rng = random.Random(3)
    for _ in range(500):
        rows = [[rng.randint(-30, 30) for _ in range(2)] for _ in range(rng.randint(2, 5))]
        minors = [x0 * y1 - y0 * x1 for i, (x0, y0) in enumerate(rows) for x1, y1 in rows[i + 1:]]
        if not any(minors):
            continue
        (a, b), (z, d) = row_hnf(rows)
        assert z == 0 and a > 0 and d > 0 and 0 <= b < d
        # every row lies in span(hnf), and both lattices have the same index in Z^2
        for x, y in rows:
            assert x % a == 0 and (y - (x // a) * b) % d == 0
        assert a * d == gcd(*minors)


def test_left_kernel_annihilates():
    assert left_kernel([[2, 4], [1, 2], [3, 5]]) in ([[1, -2, 0]], [[-1, 2, 0]])
    rng = random.Random(4)
    for _ in range(500):
        rows = [[rng.randint(-20, 20) for _ in range(2)] for _ in range(rng.choice((3, 4)))]
        if rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]:
            continue
        k = left_kernel(rows)
        assert len(k) == len(rows) - 2
        for coeffs in k:
            assert [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(2)] == [0, 0]
        # the basis is saturated (its maximal minors are coprime), so it
        # spans the whole kernel and not a sublattice of it
        if len(k) == 1:
            assert gcd(*k[0]) == 1
        else:
            (p, q) = k
            assert gcd(*(p[i] * q[j] - p[j] * q[i] for i in range(4) for j in range(i + 1, 4))) == 1


def _rank(rows):
    if not any(x or y for x, y in rows):
        return 0
    return 2 if any(x0 * y1 - y0 * x1 for x0, y0 in rows for x1, y1 in rows) else 1


def _shaped_rows(rng, m, rank):
    """m rows (x, y) of the given rank, some of them zero or with x = 0."""
    def entry():
        return rng.choice((0, rng.randint(-30, 30)))

    while True:
        if rank == 0:
            rows = [(0, 0)] * m
        elif rank == 1:
            v = (entry(), entry())
            rows = [(k * v[0], k * v[1]) for k in (rng.randint(-4, 4) for _ in range(m))]
        else:
            rows = [rng.choice(((0, 0), (0, entry()), (entry(), entry()))) for _ in range(m)]
        if _rank(rows) == rank:
            return rows


def test_left_kernel_on_every_shape():
    # Every row count 1-6 at every rank, zero rows and rows with x = 0
    # among them, and the stacked Hermite bases [(a, b), (0, e), (x, y),
    # (0, z)] that FracLattice.__and__ passes.
    rng = random.Random(25)
    cases = [
        (m, rank, _shaped_rows(rng, m, rank))
        for m in range(1, 7) for rank in range(min(m, 2) + 1) for _ in range(150)
    ]
    for _ in range(300):
        a, e, x, z = (rng.randint(1, 40) for _ in range(4))
        cases.append((4, 2, [(a, rng.randrange(e)), (0, e), (x, rng.randrange(z)), (0, z)]))
    for m, rank, rows in cases:
        k = left_kernel(rows)
        assert len(k) == m - rank, rows
        for coeffs in k:
            assert len(coeffs) == m
            assert [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(2)] == [0, 0], rows
        # saturated: the maximal minors of the basis are coprime, so it
        # spans the whole kernel and not a sublattice of it
        if k:
            columns = combinations(range(m), len(k))
            minors = [det([[v[j] for j in cols] for v in k]) for cols in columns]
            assert gcd(*minors) == 1, rows


def test_xgcd():
    for a, b in ((12, 18), (-5, 7), (0, 4), (13, 0), (0, 0)):
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0


def _lattices(n):
    """Every subgroup of (Z/n)^2 as its FracLattice, in oracle order."""
    return [FracLattice.from_subgroup(s) for s in oracle.exhaustive_subgroups(n)]


def _order(lat):
    return lat.index_over(FracLattice.unit())


def test_index_over_is_checked_covolume_ratio():
    # index_over reads both bases once; it must agree with `member` of the
    # base's rows and the covolume ratio, across levels and so across dens.
    lats = [lat for n in range(1, 9) for lat in _lattices(n)]
    rng = random.Random(26)
    for _ in range(60):
        rows = [[3 * rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(3)]
        lats.append(FracLattice.make(rng.randint(1, 30), rows))
    for lat in lats:
        for base in lats:
            if contains(lat, base):
                (bnum, bden), (num, den) = covolume(base), covolume(lat)
                assert lat.index_over(base) == Fraction(bnum * den, bden * num), (lat, base)
            else:
                with pytest.raises(DerivationError, match="non-sublattice"):
                    lat.index_over(base)


def test_subgroup_identities():
    triv = FracLattice.unit()
    c = FracLattice.from_subgroup(TorsionSubgroup(2, ((1, 0), (0, 2))))
    assert (c + triv) == c
    assert (c & triv) == triv
    line1 = FracLattice.from_subgroup(TorsionSubgroup(2, ((1, 0), (0, 2))))
    line2 = FracLattice.from_subgroup(TorsionSubgroup(2, ((2, 0), (0, 1))))
    assert _order(line1 + line2) == 4
    assert (line1 & line2) == triv


def test_subgroup_distinct_prime_lines_intersect_trivially():
    for ell in (2, 3, 5, 7, 11, 13):
        lines = [lat for lat in _lattices(ell) if _order(lat) == ell]
        assert len(lines) == ell + 1
        for i, a in enumerate(lines):
            for b in lines[i + 1 :]:
                assert (a & b) == FracLattice.unit()
                assert _order(a + b) == ell * ell


def test_subgroup_lattice_axioms():
    for n in (4, 6, 9):
        subs = _lattices(n)
        for a in subs:
            for b in subs:
                s, i = a + b, a & b
                assert s == b + a and i == b & a
                assert (a + (a & b)) == a  # absorption
                assert (a & (a + b)) == a
                assert _order(s) * _order(i) == _order(a) * _order(b)


def _elements(lat, n):
    """The points of lat/Z^2 inside (Z/n)^2, enumerated from its Hermite
    basis; lat's den divides n."""
    den, a, b, d = lat
    k = n // den
    return frozenset(((i * a * k) % n, (i * b * k + j * d * k) % n) for i in range(n) for j in range(n))


def test_subgroup_sum_and_intersection_brute_force():
    for n in range(1, 13):
        subs = oracle.exhaustive_subgroups(n)
        lats = [FracLattice.from_subgroup(s) for s in subs]
        points = {lat: _elements(lat, n) for lat in lats}
        for s, lat in zip(subs, lats):
            (a, b), (_, d) = s.basis
            assert points[lat] == {((i * a) % n, (i * b + j * d) % n) for i in range(n) for j in range(n)}
            assert len(points[lat]) == s.order == _order(lat)
        for a in lats:
            for b in lats:
                pa, pb = points[a], points[b]
                generated = {((x + u) % n, (y + v) % n) for x, y in pa for u, v in pb}
                assert _elements(a + b, n) == generated, (n, a, b)
                assert _elements(a & b, n) == pa & pb, (n, a, b)
                assert contains(a, b) == (pb <= pa)


def _folded_sum(a, b):
    """a + b as `make` folds it: b's rows, scaled to the common den, into
    a's Hermite basis scaled the same way."""
    (aden, x, y, e), bden = a, b[0]
    d = lcm(aden, bden)
    k, j = d // aden, d // bden
    return FracLattice.make(d, [[t * j for t in row] for row in basis(b)], (x * k, y * k, e * k))


def test_sum_is_make():
    # FracLattice.__add__ writes out in closed form the fold `make` does.
    lats = {lat for n in range(1, 13) for lat in _lattices(n)}
    for a in lats:
        for b in lats:
            assert a + b == _folded_sum(a, b), (a, b)
    # Seeded lattices off Z^2, whose rows share a factor c that den need
    # not cancel, so the sum's basis can have a content prime to its den.
    rng = random.Random(23)

    def sample():
        c = rng.choice((1, 2, 3, 4, 6, 12))
        rows = [[c * rng.randint(-30, 30) for _ in range(2)] for _ in range(3)]
        return FracLattice.make(rng.randint(1, 60), rows)

    pairs = 0
    while pairs < 2000:
        a, b = sample(), sample()
        if a[0] != b[0]:
            pairs += 1
            assert a + b == _folded_sum(a, b), (a, b)


def test_singular_generators_rejected():
    singular = (
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[0, 5], [0, 7], [0, 1]],
        [[3, 1], [6, 2], [-9, -3]],
        [[1, 0], [2, 0], [-3, 0], [0, 0]],
        [[4, 6], [0, 0], [-2, -3], [6, 9]],
    )
    for rows in singular:
        for den in (1, 12):
            with pytest.raises(SingularMatrixError):
                FracLattice.make(den, rows)


def test_subgroup_validation():
    with pytest.raises(KernelInputError):
        TorsionSubgroup(2, ((1, 0), (1, 2)))  # not upper triangular
    with pytest.raises(KernelInputError):
        TorsionSubgroup(2, ((3, 0), (0, 2)))  # does not contain 2*Z^2
    with pytest.raises(KernelInputError):
        TorsionSubgroup(4, ((2, 1), (0, 4)))  # (n/a)*b not divisible by d


@pytest.mark.parametrize(
    "data",
    [
        {"den": 6.9, "basis": [[1, 0.5], [0, 6.7]]},  # int() read this as den 6
        {"den": 6, "basis": [[1, 0], [0, 6.0]]},
        {"den": "6", "basis": [[1, 0], [0, 6]]},
        {"den": True, "basis": [[1, 0], [0, 1]]},
        {"den": 6},
        {"basis": [[1, 0], [0, 6]]},
        {"den": 6, "basis": [[1, 0, 0], [0, 6]]},
        {"den": 6, "basis": 6},
        [6, [[1, 0], [0, 6]]],
        None,
    ],
)
def test_subgroup_from_json_is_strict(data):
    # A subgroup is read from JSON as its lattice {den, basis}, as in a certificate.
    with pytest.raises(DerivationError, match="malformed lattice"):
        FracLattice.from_json(data)


class _Level(IntEnum):
    SIX = 6


@pytest.mark.parametrize("value", [True, False, 3.0, "3", None])
def test_strict_int_refuses_non_integers(value):
    with pytest.raises(TypeError, match="expected an integer"):
        strict_int(value)


@pytest.mark.parametrize("value", [0, -7, 3, 2**100, _Level.SIX])
def test_strict_int_accepts_integers(value):
    # An int subclass other than bool, such as an IntEnum member, is read as itself.
    assert strict_int(value) is value


def test_count_subgroups_vs_enumeration():
    for n in range(1, 31):
        assert count_subgroups(n) == len(oracle.exhaustive_subgroups(n))


def test_count_subgroups_closed_form_at_large_n():
    # (Z/n)^2 is the product of its p-parts, and the subgroups of
    # (Z/p^e)^2 number the sum of gcd(d, p^e/a) over divisor pairs a, d.
    def prime_power_count(p, e):
        divs = [p**i for i in range(e + 1)]
        return sum(gcd(d, p**e // a) for a in divs for d in divs)

    assert count_subgroups(10**18) == prime_power_count(2, 18) * prime_power_count(5, 18)
    assert count_subgroups(10**18) == 11249706745132173451
    for n in (0, -4):
        with pytest.raises(KernelInputError, match="positive"):
            count_subgroups(n)
