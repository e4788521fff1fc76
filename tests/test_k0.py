"""Grothendieck-group classes, quotient relations, and derivation certificates."""

import hashlib
import itertools
import json
import math
import pathlib
import random
import re
import sys
import types
from collections import Counter
from fractions import Fraction

import pytest

from k0av import k0, oracle
from k0av.arith import TorsionSubgroup, divisors
from k0av.contexts import CM, CharPEndZ, EndZ, OrdinaryCM, Supersingular
from k0av.errors import ContextMismatchError, DerivationError, K0Error, KernelInputError, LevelMismatchError
from k0av.k0 import (
    Derivation,
    FracLattice,
    K0Element,
    QuotientRelation,
    derive_same_degree,
    k0_class,
    validate_derivation,
)
from k0av.kernels import KernelSpec, kernel_class


def lattice(level, *gens):
    """The lattice L of the subgroup L/Z^2 of (Q/Z)^2 generated by the
    points g/level."""
    return FracLattice.make(level, [*gens, (level, 0), (0, level)])


def sub(level, *gens):
    """The same subgroup as the TorsionSubgroup that derive_same_degree
    takes: the Hermite basis of level*L."""
    lat = lattice(level, *gens)
    k = level // lat.den
    (a, b), (_, d) = lat.basis
    return TorsionSubgroup(level, ((a * k, b * k), (0, d * k)))


# ---------------------------------------------------------------- K0 classes


def test_element_algebra_frozen():
    ctx = EndZ(2)
    x = k0_class(ctx, 1, 3)
    assert x.n == 1 and x.deg == ctx.degree_class(3)
    assert x.dual() != x
    assert x + x.dual() == K0Element(2, ctx.identity())
    assert x - x == K0Element(0, ctx.identity())
    assert x.scale(4) == K0Element(4, ctx.identity())
    assert x.describe() == "(1, exponents mod 4: 3^1)"
    assert x.to_json() == {
        "n": 1,
        "degree_class": {"case": "end_z", "modulus": 4, "exponents": [[3, 1]]},
    }


def test_scale_matches_repeated_sum():
    cases = ((EndZ(2), Fraction(3, 10)), (CM(-20), 33), (CharPEndZ(5), KernelSpec(zp=2)))
    for ctx, degree in cases:
        x = k0_class(ctx, 3, degree)
        assert x.scale(1) is x
        assert x.scale(0) == K0Element(0, ctx.identity())
        for k in (-2, -1, 1, 2, 3):
            step = x if k > 0 else -x
            total = step
            for _ in range(abs(k) - 1):
                total = total + step
            assert x.scale(k) == total, (ctx, k)


def test_element_past_digit_limit_raises_k0error():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter sets no int-conversion limit")
    near = 10 ** (limit - 1)
    x = k0_class(CM(-20), near, 1).scale(near)
    for show in (x.describe, x.to_json):
        with pytest.raises(K0Error, match=f"multiplicity has more digits than the limit of {limit}"):
            show()
    y = k0_class(CharPEndZ(5), 1, KernelSpec(zp=near)).scale(near)
    for show in (y.describe, y.to_json):
        with pytest.raises(K0Error, match=f"p-degree has more digits than the limit of {limit}"):
            show()
    # the limit is exact: limit digits print, one more does not
    assert len(str(K0Element(1 - 10**limit, CM(-20).identity()).to_json()["n"])) == limit + 1
    with pytest.raises(K0Error, match="limit of"):
        K0Element(-(10**limit), CM(-20).identity()).describe()


def test_element_self_dual_in_two_torsion_contexts():
    x = k0_class(CM(-20), 1, 3)
    assert x.dual() == x
    assert x + x.dual() == K0Element(2, CM(-20).identity())


def test_k0_class_kernel_dispatch():
    k = KernelSpec(mup=1)
    assert k0_class(Supersingular(5), 1, k).deg.is_identity
    cls = k0_class(CharPEndZ(5), 1, k)
    assert cls.deg.data == (-1, ())
    with pytest.raises(ContextMismatchError, match="characteristic-p"):
        k0_class(EndZ(2), 1, k)
    # The spec takes the context's p; only the char-p contexts accept it.
    spec = KernelSpec(mup=1, coprime=12)
    assert k0_class(CharPEndZ(5), 1, spec) == K0Element(1, kernel_class(CharPEndZ(5), spec))
    assert k0_class(Supersingular(5), 2, spec).deg.is_identity
    with pytest.raises(KernelInputError, match="cannot involve p"):
        k0_class(Supersingular(3), 1, spec)
    for ctx in (EndZ(2), CM(-20), OrdinaryCM(-20, 3)):
        with pytest.raises(ContextMismatchError, match="characteristic-p"):
            k0_class(ctx, 1, spec)


def test_decomposition_identity():
    # [A_(nm)] + [A] = [A_n] + [A_m]: distances multiply
    rng = random.Random(3)
    contexts = [EndZ(1), EndZ(2), CM(-20), CM(-23), Supersingular(7), CharPEndZ(5)]
    for ctx in contexts:
        for _ in range(100):
            n = rng.randint(1, 200)
            m = rng.randint(1, 200)
            if isinstance(ctx, CharPEndZ):
                while n % ctx.p == 0:
                    n = rng.randint(1, 200)
                while m % ctx.p == 0:
                    m = rng.randint(1, 200)
            lhs = k0_class(ctx, 1, n * m) + k0_class(ctx, 1, 1)
            rhs = k0_class(ctx, 1, n) + k0_class(ctx, 1, m)
            assert lhs == rhs


# ------------------------------------------------------------- FracLattice


def test_lattice_canonical_form():
    assert FracLattice.make(2, [[2, 0], [0, 2]]) == FracLattice.unit()
    assert FracLattice.make(4, [[2, 0], [0, 2]]) == FracLattice.make(2, [[1, 0], [0, 1]])
    lat = FracLattice.make(6, [[1, 0], [0, 1]])
    assert lat.den == 6 and lat.basis == ((1, 0), (0, 1))
    # rows get Hermite-reduced
    assert FracLattice.make(4, [[2, 3], [0, 2]]) == FracLattice.make(4, [[2, 1], [0, 2]])


def test_lattice_volume_and_index():
    unit = FracLattice.unit()
    assert unit.covolume == (1, 1)
    half = FracLattice.make(2, [[1, 0], [0, 1]])
    assert half.covolume == (1, 4)
    assert half.index_over(unit) == 4
    cyc = FracLattice.make(6, [[1, 0], [0, 6]])
    assert cyc.index_over(unit) == 6
    with pytest.raises(DerivationError, match="non-sublattice"):
        unit.index_over(half)


def test_lattice_contains_and_member():
    unit = FracLattice.unit()
    cyc = FracLattice.make(6, [[1, 0], [0, 6]])
    assert cyc.contains(unit)
    assert not unit.contains(cyc)
    assert cyc.member([1, 0], 6)
    assert not cyc.member([0, 1], 6)
    assert cyc.member([5, 3], 1)


def test_lattice_sum_intersect_extend():
    a = FracLattice.make(6, [[1, 0], [0, 6]])
    b = FracLattice.make(6, [[6, 0], [0, 1]])
    assert a + b == FracLattice.make(6, [[1, 0], [0, 1]])
    assert (a & b) == FracLattice.unit()
    # a point of order 6 of a/Z^2 extends Z^2 to a
    assert k0._point_lattice(FracLattice.unit(), a, 6) == a
    # A sum folds the other's rows into this Hermite basis; it is the
    # lattice of the four stacked rows reduced from zero.
    rng = random.Random(11)
    for _ in range(300):
        lats = []
        for _ in range(2):
            rows = [(0, 0)] * 3
            while all(p * s == q * r for (p, q), (r, s) in zip(rows, rows[1:] + rows[:1])):
                rows = [(rng.randrange(-30, 31), rng.randrange(-30, 31)) for _ in range(3)]
            lats.append(FracLattice.make(rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 35)), rows))
        x, y = lats
        d = math.lcm(x.den, y.den)
        stacked = [[v * (d // lat.den) for v in row] for lat in (x, y) for row in lat.basis]
        assert x + y == FracLattice.make(d, stacked)  # row_hnf from zero


def _span(n, gens):
    """The subgroup of (Z/n)^2 generated by gens, enumerated."""
    pts = {(0, 0)}
    for gx, gy in gens:
        pts = {((x + t * gx) % n, (y + t * gy) % n) for x, y in pts for t in range(n)}
    return frozenset(pts)


def _points(lat, n):
    """lat/Z^2 as a subset of (Z/n)^2, for lat.den dividing n."""
    k = n // lat.den
    (a, b), (_, d) = lat.basis
    return frozenset(
        ((i * a * k) % n, (i * b * k + j * d * k) % n) for i in range(n) for j in range(n)
    )


def test_lattice_matches_torsion_subgroup_ops():
    rng = random.Random(7)
    for _ in range(200):
        n1, n2 = rng.choice((2, 3, 4, 6, 12)), rng.choice((2, 3, 4, 6, 12))
        n = n1 * n2 // math.gcd(n1, n2)
        g1 = [(rng.randrange(n1), rng.randrange(n1)) for _ in range(2)]
        g2 = [(rng.randrange(n2), rng.randrange(n2))]
        l1 = FracLattice.from_subgroup(sub(n1, *g1))
        l2 = FracLattice.from_subgroup(sub(n2, *g2))
        # the same generators as points of (Z/n)^2
        h1 = [(x * (n // n1), y * (n // n1)) for x, y in g1]
        h2 = [(x * (n // n2), y * (n // n2)) for x, y in g2]
        p1, p2 = _span(n, h1), _span(n, h2)
        assert _points(l1, n) == p1 and _points(l2, n) == p2
        assert l1.index_over(FracLattice.unit()) == len(p1)
        assert _points(l1 + l2, n) == _span(n, h1 + h2)
        assert _points(l1 & l2, n) == p1 & p2
        assert l1.contains(l2) == (p2 <= p1)
        vol = [Fraction(*lat.covolume) for lat in (l1 + l2, l1 & l2, l1, l2)]
        assert vol[0] * vol[1] == vol[2] * vol[3]


def test_validate_refuses_non_canonical_lattice():
    u = FracLattice.unit()
    bad = [
        FracLattice(0, ((1, 0), (0, 1))),  # zero denominator: member() divided by it
        FracLattice(1, ((0, 0), (0, 1))),
        FracLattice(1, ((1, 0), (1, 1))),
        FracLattice(1, ((1, 3), (0, 2))),
        FracLattice(2, ((2, 0), (0, 2))),  # gcd(den, a, b, d) = 2
        FracLattice(1, ((1.0, 0), (0, 1))),
        FracLattice(1, ((1, 0),)),
    ]
    for lat in bad:
        assert not lat.is_canonical
        step = QuotientRelation(lat, u, u, u)
        with pytest.raises(DerivationError, match="step 0: base is not a canonical lattice"):
            validate_derivation(Derivation(1, u, u, ((1, step),)))
        with pytest.raises(DerivationError, match="c2 is not a canonical lattice"):
            validate_derivation(Derivation(1, u, lat, ()))
        steps = ((1, QuotientRelation(u, u, u, u)), (-1, QuotientRelation(u, u, u, lat)))
        with pytest.raises(DerivationError, match="step 1: sum is not a canonical lattice"):
            validate_derivation(Derivation(1, u, u, steps))
    assert u.is_canonical and FracLattice.make(12, [[2, 1], [0, 3]]).is_canonical


def test_to_json_names_a_non_canonical_lattice():
    u = FracLattice.unit()
    for bad in (
        FracLattice(1, ((0, 0), (0, 1))),  # member() divides by a*d = 0
        FracLattice(2, ((2, 0), (0, 2))),  # the arithmetic succeeds: to_json wrote it out
        FracLattice(1, ((1, 3), (0, 2))),  # b >= d: "index requested over a non-sublattice"
    ):
        with pytest.raises(DerivationError, match="c1 is not a canonical lattice"):
            Derivation(1, bad, u, ()).to_json()
        with pytest.raises(DerivationError, match="c1 is not a canonical lattice"):
            Derivation(1, bad, u, ()).degree
    zero = FracLattice(1, ((0, 0), (0, 1)))
    steps = ((1, QuotientRelation(u, zero, u, u)),)
    with pytest.raises(DerivationError, match="step 0: sub1 is not a canonical lattice"):
        Derivation(1, u, u, steps).to_json()


def test_derive_refuses_orders_over_the_limit():
    n = k0.MAX_DERIVE_ORDER
    assert n >= 10**4
    for order in (n + 1, 2**44):
        c1 = TorsionSubgroup(order, ((1, 0), (0, order)))
        c2 = TorsionSubgroup(order, ((order, 0), (0, 1)))
        with pytest.raises(DerivationError, match=f"limit of {n}"):
            derive_same_degree(order, c1, c2)
    # The limit itself is admitted.
    c1 = TorsionSubgroup(n, ((1, 0), (0, n)))
    c2 = TorsionSubgroup(n, ((n, 0), (0, 1)))
    assert validate_derivation(derive_same_degree(n, c1, c2))


def test_lattice_json_round_trip():
    lat = FracLattice.make(12, [[2, 1], [0, 3]])
    assert FracLattice.from_json(lat.to_json()) == lat
    assert FracLattice.from_json(json.loads(json.dumps(lat.to_json()))) == lat
    with pytest.raises(DerivationError, match="malformed lattice"):
        FracLattice.from_json({"den": 2})
    with pytest.raises(DerivationError, match="malformed lattice"):
        FracLattice.from_json({"den": 2, "basis": [[1, 2, 3], [0, 1]]})
    with pytest.raises(DerivationError, match="denominator"):
        FracLattice.make(0, [[1, 0], [0, 1]])
    # A canonical lattice is stored as it is and any other input is reduced:
    # both give what make gives, or raise what it raises.
    for den, rows in (
        (12, [[2, 1], [0, 3]]),  # canonical
        (1, [[1, 0], [0, 1]]),  # canonical
        (12, [[-2, 1], [0, 3]]),  # negative a
        (12, [[2, 4], [0, 3]]),  # b >= d
        (12, [[2, -1], [0, 3]]),  # negative b
        (12, [[2, 2], [0, 4]]),  # common factor 2 with den
        (12, [[0, 3], [2, 1]]),  # swapped rows
        (12, [[2, 1], [0, 3], [4, 5]]),  # three rows
        (12, [[2, 1]]),  # one row: singular
        (12, [[2, 1], [4, 2]]),  # singular rows
        (0, [[1, 0], [0, 1]]),  # canonical basis, zero denominator
        (-3, [[1, 0], [0, 1]]),  # negative denominator
    ):
        try:
            want = FracLattice.make(den, rows)
        except K0Error as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                FracLattice.from_json({"den": den, "basis": rows})
        else:
            got = FracLattice.from_json({"den": den, "basis": rows})
            assert got == want and got.is_canonical


# ------------------------------------------------------ quotient relations


def test_quotient_relation_basic():
    rel = QuotientRelation.build(FracLattice.unit(), lattice(6, (1, 0)), lattice(6, (0, 1)))
    assert rel.base == FracLattice.unit()
    assert rel.to_json()["orders"] == [6, 6]
    assert rel.joint.index_over(rel.base) == 36
    vec = rel.vector()
    assert vec[rel.base] == 1 and vec[rel.joint] == 1
    assert vec[rel.sub1] == -1 and vec[rel.sub2] == -1


def test_quotient_relation_rejects():
    unit = FracLattice.unit()
    with pytest.raises(DerivationError, match="intersect nontrivially"):
        QuotientRelation.build(unit, lattice(4, (1, 0)), lattice(4, (1, 0), (0, 2)))
    with pytest.raises(DerivationError, match="contain the base"):
        QuotientRelation.build(lattice(2, (1, 0)), unit, lattice(2, (1, 0)))
    # subgroups of different levels are lattices like any other
    assert QuotientRelation.build(unit, lattice(6, (1, 0)), lattice(4, (0, 1))).to_json()["orders"] == [6, 4]
    # trivial subgroups are allowed and give a degenerate relation
    rel = QuotientRelation.build(unit, unit, unit)
    assert rel.vector() == {}


def test_quotient_relation_degree_balance():
    # indexes multiply: |joint/base| = |sub1/base| * |sub2/base|, so the
    # formal relation is degree-consistent in every context
    rng = random.Random(13)
    ctx = EndZ(2)
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5, 6, 8, 9, 10, 12))
        groups = [
            FracLattice.make(n, ((x, b), (0, n // x)))
            for x in (d for d in range(1, n + 1) if n % d == 0)
            for b in range(n // x)
        ]
        l1, l2 = rng.choice(groups), rng.choice(groups)
        if (l1 & l2) != FracLattice.unit():
            continue
        rel = QuotientRelation.build(FracLattice.unit(), l1, l2)
        o1, o2 = rel.to_json()["orders"]
        assert rel.joint.index_over(rel.base) == o1 * o2
        lhs = ctx.degree_class(1) * ctx.degree_class(o1 * o2)
        rhs = ctx.degree_class(o1) * ctx.degree_class(o2)
        assert lhs == rhs


def _builds(base, sub1, sub2):
    try:
        QuotientRelation.build(base, sub1, sub2)
    except DerivationError as exc:
        assert "intersect nontrivially" in str(exc)
        return False
    return True


def _one_step(base, sub1, sub2):
    return Derivation(1, sub1, sub1, ((1, QuotientRelation(base, sub1, sub2, sub1 + sub2)),))


def test_index_identity_matches_intersection_exhaustive():
    # Every base B of level <= 12 and every pair of level-n subgroups
    # containing it: the relation builds exactly when sub1 & sub2 == B.
    seen = Counter()
    for n in range(1, 13):
        lats = [FracLattice.from_subgroup(s) for s in oracle.exhaustive_subgroups(n)]
        for base in lats:
            over = [lat for lat in lats if lat.contains(base)]
            for sub1 in over:
                for sub2 in over:
                    trivial = (sub1 & sub2) == base
                    assert _builds(base, sub1, sub2) == trivial, (base, sub1, sub2)
                    seen[trivial] += 1
    assert seen == {True: 13145, False: 25634}


def test_index_identity_matches_intersection_mixed_levels():
    # Random bases and subgroups over them at mixed levels; the validator's
    # verdict is checked too, for rejected and accepted steps.
    rng = random.Random(11)
    levels = (1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 18, 20, 24, 30)

    def random_lattice():
        n = rng.choice(levels)
        gens = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2))]
        return FracLattice.from_subgroup(sub(n, *gens))

    seen = Counter()
    for _ in range(1500):
        base = random_lattice()
        sub1, sub2 = base + random_lattice(), base + random_lattice()
        trivial = (sub1 & sub2) == base
        assert _builds(base, sub1, sub2) == trivial, (base, sub1, sub2)
        failures = validate_derivation(_one_step(base, sub1, sub2)).failures
        assert ("step 0: subgroups intersect nontrivially" in failures) == (not trivial)
        seen[trivial] += 1
    assert seen[True] > 100 and seen[False] > 100


def _index_subgroups_by_make(base, m):
    """The index-m overlattices through FracLattice.make, in the order the
    closed form must reproduce."""
    (a, b), (_, d) = base.basis
    for x in divisors(m):
        z = m // x
        for t in range(z):
            yield FracLattice.make(base.den * m, [[x * a, x * b + t * d], [0, z * d]])


def test_index_subgroups_closed_form(monkeypatch):
    bases = {}
    closed_form = k0._index_subgroups

    def recording(base, m):
        bases[base] = None
        return closed_form(base, m)

    # The bases the exhaustive part of acceptance criterion 6 reaches.
    monkeypatch.setattr(k0, "_index_subgroups", recording)
    for n in range(1, 13):
        by_order = {}
        for s in oracle.exhaustive_subgroups(n):
            by_order.setdefault(s.order, []).append(s)
        for order, group in by_order.items():
            for c1 in group:
                for c2 in group:
                    derive_same_degree(order, c1, c2)
    assert len(bases) >= 80
    for base in bases:
        for m in range(1, 25):
            got = list(closed_form(base, m))
            assert got == list(_index_subgroups_by_make(base, m)), (base, m)
            assert len(got) == sum(divisors(m))
    # FracLattice.from_subgroup is closed form too: every subgroup of every
    # level <= 24 gives the lattice FracLattice.make reduces its basis to.
    for n in range(1, 25):
        for s in oracle.exhaustive_subgroups(n):
            assert FracLattice.from_subgroup(s) == FracLattice.make(n, s.basis), s


def _perfbench_workloads():
    """perfbench/workloads.py, compiled from its text so that no bytecode
    is written next to it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def _scan_middle(base, span, m):
    return next((c for c in k0._index_subgroups(base, m) if c.contains(span)), None)


def test_middle_solves_for_the_scan_pick(monkeypatch):
    calls = []
    solve = k0._middle

    def recording(base, span, m):
        calls.append((base, span, m))
        return solve(base, span, m)

    # Every (base, span, m) that derivations reach at levels <= 12 ...
    monkeypatch.setattr(k0, "_middle", recording)
    for n in range(1, 13):
        by_order = {}
        for s in oracle.exhaustive_subgroups(n):
            by_order.setdefault(s.order, []).append(s)
        for order, group in by_order.items():
            for c1 in group:
                for c2 in group:
                    derive_same_degree(order, c1, c2)
    small = len(calls)
    # ... and those of one benchmark tail pair per level, orders 36 to 2310.
    workloads = _perfbench_workloads()
    tail = {}
    for n, c1, c2 in workloads.make_certify(1)["pairs"]:
        if n in workloads.CERT_TAIL_LEVELS:
            tail.setdefault(n, (c1, c2))
    assert sorted(tail) == sorted(workloads.CERT_TAIL_LEVELS)
    for n, ((a, b, d), (a2, b2, d2)) in tail.items():
        derive_same_degree(n, TorsionSubgroup(n, ((a, b), (0, d))), TorsionSubgroup(n, ((a2, b2), (0, d2))))
    assert small > 1000 and len(calls) > small
    for base, span, m in calls:
        assert solve(base, span, m) == _scan_middle(base, span, m), (base, span, m)
    # Seeded spans: the base extended by a point of (1/(m*k)) * base for
    # k = 1 or 2, which some index-m overlattice may contain, or a random
    # lattice, which hardly any does.
    rng = random.Random(20)
    found = 0
    for i in range(3000):
        base = FracLattice.make(rng.randint(1, 12), [(rng.randint(1, 30), rng.randint(-30, 30)), (0, rng.randint(1, 30))])
        m = rng.randint(1, 60)
        den = base.den * m * rng.choice((1, 1, 2))
        if i % 2:
            (a, b), (_, d) = base.basis
            u, v, s = rng.randint(-90, 90), rng.randint(-90, 90), den // base.den
            span = FracLattice.make(den, [(u * a, u * b + v * d), (a * s, b * s), (0, d * s)])
        else:
            rows = [(rng.randint(1, 90), rng.randint(-90, 90)), (rng.randint(-90, 90), rng.randint(-90, 90))]
            span = FracLattice.make(den, rows + [(0, rng.randint(1, 90))])
        got = solve(base, span, m)
        assert got == _scan_middle(base, span, m), (base, span, m)
        found += got is not None
    assert 500 < found < 2500


# SHA-256 of the compact JSON certificate, and its step count, for the
# cyclic pairs generated by (1/n, 0), (0, 1/n) and (1/n, 1/n), taken when
# each `middle` was found by scanning every index-m candidate.  The step
# counts grow as 2^Omega(m) for some pairs (64 = 2^6 at n = 30030), which
# is what bounds MAX_DERIVE_ORDER now.
LARGE_ORDER_CERTS = {
    30030: [
        (12, "9b56b436218083d0d8cfc09a46576a655a02027536b320079a94ea4a2f3ff9ea"),
        (64, "f3bf0142b19e47f6b10cedcefb5b749aea7bf74b60088ed9efd657e30d0b70c8"),
        (22, "ba02e27012a8680255bc14566e083f118b1960392c1d8cb23fa8287a9ac22df7"),
    ],
    48048: [
        (16, "76a272ae6610f3d3e69c9888f3e46972844f42d8aebc014d281aa076b4820da2"),
        (116, "0b904e5078c409b3be770ce86fc494d592f70826a295c2ab55de0a14d0c467e9"),
        (48, "17df843903b4776eeadc7a20982c2a197a7317e2a04c112b1101e88244568f57"),
    ],
    32768: [
        (30, "5a93da14eb3c9a9dbaf8acddedfd36e5176c46c869d15d5da373b76907001b32"),
        (30, "3620ab86ba3af25bb534c640b0d6a78b36670f1353f5f7ec3f661b357f3d86fc"),
        (56, "c73e961ae9377425a4e7d025582643e6e874e980704baf81ec21671ffe83c03e"),
    ],
}


@pytest.mark.parametrize("n", sorted(LARGE_ORDER_CERTS))
def test_large_order_certificates_pinned(n):
    cyclic = [TorsionSubgroup(n, basis) for basis in (((1, 0), (0, n)), ((n, 0), (0, 1)), ((1, 1), (0, n)))]
    got = []
    for c1, c2 in itertools.combinations(cyclic, 2):
        d = derive_same_degree(n, c1, c2)
        cert = json.dumps(d.to_json(), separators=(",", ":")).encode()
        got.append((len(d.steps), hashlib.sha256(cert).hexdigest()))
    assert got == LARGE_ORDER_CERTS[n]


# ------------------------------------------------------------- derivations


def test_derive_equal_subgroups_is_empty():
    c = sub(4, (1, 0))
    d = derive_same_degree(4, c, c)
    assert d.steps == ()
    assert validate_derivation(d)


def test_derive_prime_order():
    d = derive_same_degree(2, sub(2, (1, 0)), sub(2, (0, 1)))
    assert len(d.steps) == 2
    assert {s for s, _ in d.steps} == {-1, 1}
    assert validate_derivation(d)
    assert d.degree == 2


def test_derive_order_six_cyclics():
    c1 = sub(6, (1, 0))
    c2 = sub(6, (0, 1))
    d = derive_same_degree(6, c1, c2)
    check = validate_derivation(d)
    assert check.ok and check.failures == ()
    assert d.degree == 6
    assert d.level == 6
    # every step stays inside the order-36 window: volumes between 1/36 and 1
    for _, rel in d.steps:
        for lat in (rel.base, rel.sub1, rel.sub2, rel.joint):
            assert Fraction(1, 36) <= Fraction(*lat.covolume) <= 1


def all_subgroups_of_order(n):
    out = []
    for x in (d for d in range(1, n + 1) if n % d == 0):
        for b in range(n // x):
            out.append(TorsionSubgroup(n, ((x, b), (0, n // x))))
    return out


def test_derive_exhaustive_small_orders():
    for n in range(2, 11):
        groups = all_subgroups_of_order(n)
        assert len(groups) == sum(n // x for x in range(1, n + 1) if n % x == 0)
        for c1 in groups:
            for c2 in groups:
                d = derive_same_degree(n, c1, c2)
                assert validate_derivation(d), (n, c1, c2)


# SHA-256 of the compact JSON of every certificate for the same-order pairs
# at levels 1..8, one per line, in oracle enumeration order; certificate
# bytes are part of the k0-derivation/1 contract.
CERTS_LEVEL_8_SHA256 = "935b2a029e6e696b7a2f22dbc6385b86f15be324b708fdfd644780455fd9e610"


def test_certificate_bytes_pinned():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 9):
        by_order = {}
        for s in oracle.exhaustive_subgroups(n):
            by_order.setdefault(s.order, []).append(s)
        for order, group in by_order.items():
            for c1 in group:
                for c2 in group:
                    cert = derive_same_degree(order, c1, c2).to_json()
                    digest.update(json.dumps(cert, separators=(",", ":")).encode())
                    digest.update(b"\n")
                    count += 1
    assert count == 744
    assert digest.hexdigest() == CERTS_LEVEL_8_SHA256


def test_derive_rejects_mismatches():
    with pytest.raises(LevelMismatchError):
        derive_same_degree(2, sub(2, (1, 0)), sub(4, (0, 2)))
    with pytest.raises(DerivationError, match="orders differ"):
        derive_same_degree(2, sub(4, (1, 0)), sub(4, (2, 0)))
    with pytest.raises(DerivationError, match="claimed degree"):
        derive_same_degree(3, sub(4, (1, 0)), sub(4, (0, 1)))


def test_validate_rejects_corruption():
    d = derive_same_degree(6, sub(6, (1, 0)), sub(6, (0, 1)))
    payload = d.to_json()

    def reload(mutate):
        data = json.loads(json.dumps(payload))
        mutate(data)
        return validate_derivation(Derivation.from_json(data))

    assert reload(lambda data: None).ok

    def corrupt_basis(data):
        data["steps"][0]["sub1"]["basis"][0][0] *= 2

    def flip_sign(data):
        data["steps"][0]["sign"] *= -1

    def drop_step(data):
        del data["steps"][0]

    def move_goal(data):
        data["c1"] = {"den": 3, "basis": [[1, 0], [0, 3]]}

    def wrong_sum(data):
        data["steps"][0]["sum"] = data["steps"][0]["sub1"]

    for mutate in (corrupt_basis, flip_sign, drop_step, move_goal, wrong_sum):
        check = reload(mutate)
        assert not check.ok
        assert check.failures


def test_validate_rejects_stated_numbers():
    payload = derive_same_degree(6, sub(6, (1, 0)), sub(6, (0, 1))).to_json()

    def failures(mutate):
        data = json.loads(json.dumps(payload))
        mutate(data)
        return validate_derivation(Derivation.from_json(data)).failures

    assert failures(lambda data: None) == ()
    assert failures(lambda data: data["steps"][0].__setitem__("orders", [999, 1])) == (
        "step 0: stated orders [999, 1] are not the indices [3, 3] over the base",
    )
    assert failures(lambda data: data["steps"][2].__setitem__("orders", [2, 3])) == (
        "step 2: stated orders [2, 3] are not the indices [2, 2] over the base",
    )
    assert failures(lambda data: data.__setitem__("degree", 12345)) == (
        "stated degree 12345 is not the order 6 of the goal subgroups",
    )

    def unstated(data):
        del data["degree"]
        for step in data["steps"]:
            del step["orders"]

    assert failures(unstated) == ()
    # A step whose sub1 misses the base reports that, not its orders.
    assert not any("stated orders" in f for f in failures(
        lambda data: data["steps"][0]["sub1"]["basis"][0].__setitem__(0, 10**6)
    ))
    # Stated numbers do not take part in equality.
    assert Derivation.from_json(payload) == Derivation.from_json(dict(payload, degree=7))


def test_certificate_numbers_must_be_integers():
    # int() would truncate 3.99 to 3 or parse "6", so a stated number
    # that is not an integer makes the certificate malformed.
    good = derive_same_degree(6, sub(6, (1, 0)), sub(6, (0, 1))).to_json()

    places = (["level"], ["degree"], ["steps", 0, "sign"], ["steps", 0, "orders", 1],
              ["c1", "den"], ["steps", 1, "base", "basis", 0, 0])
    assert validate_derivation(Derivation.from_json(good))
    for path in places:
        for value in (3.99, float("inf"), True, "6"):
            broken = json.loads(json.dumps(good))
            node = broken
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            with pytest.raises(DerivationError, match="malformed .*: expected an integer"):
                Derivation.from_json(broken)


def test_validate_empty_with_distinct_goals():
    d = Derivation(
        2,
        FracLattice.make(2, [[1, 0], [0, 2]]),
        FracLattice.make(2, [[2, 0], [0, 1]]),
        (),
    )
    check = validate_derivation(d)
    assert not check.ok
    assert any("telescope" in f for f in check.failures)


def test_validate_unequal_orders():
    d = Derivation(4, FracLattice.make(2, [[1, 0], [0, 2]]), FracLattice.unit(), ())
    check = validate_derivation(d)
    assert any("different orders" in f for f in check.failures)


def test_derivation_json_round_trip():
    d = derive_same_degree(12, sub(12, (1, 0)), sub(12, (0, 1)))
    data = json.loads(json.dumps(d.to_json()))
    assert data["format"] == "k0-derivation/1"
    assert data["degree"] == 12
    restored = Derivation.from_json(data)
    assert restored == d
    assert validate_derivation(restored)


def test_derivation_json_rejects_malformed():
    with pytest.raises(DerivationError, match="not a k0-derivation/1"):
        Derivation.from_json({"format": "k0-derivation/2", "level": 2})
    with pytest.raises(DerivationError, match="not a k0-derivation/1"):
        Derivation.from_json([1, 2, 3])
    good = derive_same_degree(2, sub(2, (1, 0)), sub(2, (0, 1))).to_json()
    for key in ("level", "c1", "c2", "steps"):
        broken = json.loads(json.dumps(good))
        del broken[key]
        with pytest.raises(DerivationError, match="malformed certificate"):
            Derivation.from_json(broken)
    broken = json.loads(json.dumps(good))
    del broken["steps"][0]["sub2"]
    with pytest.raises(DerivationError, match="malformed certificate"):
        Derivation.from_json(broken)
