"""Grothendieck-group classes, quotient relations, and derivation certificates."""

import hashlib
import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from k0av import k0, oracle
from k0av.arith import TorsionSubgroup, lattice_index
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

from conftest import basis, contains, covolume, load_perfbench, squarefree


def lattice(level, *gens):
    """The lattice L of the subgroup L/Z^2 of (Q/Z)^2 generated by the
    points g/level."""
    return FracLattice.make(level, [*gens, (level, 0), (0, level)])


def sub(level, *gens):
    """The same subgroup as the TorsionSubgroup that derive_same_degree
    takes: the Hermite basis of level*L."""
    den, a, b, d = lattice(level, *gens)
    k = level // den
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
    assert lat == (6, 1, 0, 1)
    # rows get Hermite-reduced
    assert FracLattice.make(4, [[2, 3], [0, 2]]) == FracLattice.make(4, [[2, 1], [0, 2]])


def test_lattice_volume_and_index():
    unit = FracLattice.unit()
    assert covolume(unit) == (1, 1)
    half = FracLattice.make(2, [[1, 0], [0, 1]])
    assert covolume(half) == (1, 4)
    assert half.index_over(unit) == 4
    cyc = FracLattice.make(6, [[1, 0], [0, 6]])
    assert cyc.index_over(unit) == 6
    with pytest.raises(DerivationError, match="non-sublattice"):
        unit.index_over(half)


def test_lattice_contains_and_member():
    unit = FracLattice.unit()
    cyc = FracLattice.make(6, [[1, 0], [0, 6]])
    assert contains(cyc, unit) and lattice_index(*cyc, *unit) != 0
    assert not contains(unit, cyc) and lattice_index(*unit, *cyc) == 0
    assert cyc.member([1, 0], 6)
    assert not cyc.member([0, 1], 6)
    assert cyc.member([5, 3], 1)


def test_lattice_sum_intersect_extend():
    a = FracLattice.make(6, [[1, 0], [0, 6]])
    b = FracLattice.make(6, [[6, 0], [0, 1]])
    assert a + b == FracLattice.make(6, [[1, 0], [0, 1]])
    assert (a & b) == FracLattice.unit()
    # a point of order 6 of a/Z^2, folded into Z^2's basis over 6, gives a
    assert FracLattice.make(6, [(1, 0)], (6, 0, 6)) == a
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
        d = math.lcm(x[0], y[0])
        stacked = [[v * (d // lat[0]) for v in row] for lat in (x, y) for row in basis(lat)]
        assert x + y == FracLattice.make(d, stacked)  # row_hnf from zero


def _span(n, gens):
    """The subgroup of (Z/n)^2 generated by gens, enumerated."""
    pts = {(0, 0)}
    for gx, gy in gens:
        pts = {((x + t * gx) % n, (y + t * gy) % n) for x, y in pts for t in range(n)}
    return frozenset(pts)


def _points(lat, n):
    """lat/Z^2 as a subset of (Z/n)^2, for lat's den dividing n."""
    den, a, b, d = lat
    k = n // den
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
        assert contains(l1, l2) == (p2 <= p1)
        vol = [Fraction(*covolume(lat)) for lat in (l1 + l2, l1 & l2, l1, l2)]
        assert vol[0] * vol[1] == vol[2] * vol[3]


def test_validate_refuses_non_canonical_lattice():
    u = FracLattice.unit()
    bad = [
        FracLattice((0, 1, 0, 1)),  # zero denominator: member() divided by it
        FracLattice((1, 0, 0, 1)),
        FracLattice((1, 1, 3, 2)),
        FracLattice((2, 2, 0, 2)),  # gcd(den, a, b, d) = 2
        FracLattice((1, 1.0, 0, 1)),
        FracLattice((1, 1, 0)),  # three ints
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
        FracLattice((1, 0, 0, 1)),  # member() divides by a*d = 0
        FracLattice((2, 2, 0, 2)),  # the arithmetic succeeds: to_json wrote it out
        FracLattice((1, 1, 3, 2)),  # b >= d: "index requested over a non-sublattice"
    ):
        with pytest.raises(DerivationError, match="c1 is not a canonical lattice"):
            Derivation(1, bad, u, ()).to_json()
        with pytest.raises(DerivationError, match="c1 is not a canonical lattice"):
            Derivation(1, bad, u, ()).degree
    zero = FracLattice((1, 0, 0, 1))
    steps = ((1, QuotientRelation(u, zero, u, u)),)
    with pytest.raises(DerivationError, match="step 0: sub1 is not a canonical lattice"):
        Derivation(1, u, u, steps).to_json()


def test_constructor_names_a_non_canonical_lattice():
    # The constructor is where a hand-built lattice is refused, whatever is
    # later asked of the derivation; a value that is no lattice at all is
    # named the same way.
    u = FracLattice.unit()
    bad = FracLattice((2, 2, 0, 2))
    ok = (1, QuotientRelation(u, u, u, u))
    for c1, c2, steps, name in (
        (bad, u, (), "c1"),
        (u, None, (), "c2"),
        (u, u, ((1, QuotientRelation(u, u, bad, u)),), "step 0: sub2"),
        (u, u, (ok, (-1, QuotientRelation(None, u, u, u))), "step 1: base"),
        (u, u, (ok, ok, (1, QuotientRelation(u, u, u, (1, ((1, 0), (0, 1)))))), "step 2: sum"),
    ):
        with pytest.raises(DerivationError, match=f"^{name} is not a canonical lattice$"):
            Derivation(1, c1, c2, steps)
    assert Derivation(1, u, u, (ok,)).to_json()["degree"] == 1


def test_constructor_refuses_a_plain_tuple_lattice():
    # A lattice equals the plain tuple of its ints, but a Derivation holds
    # only FracLattices: a canonical 4-tuple in any lattice field is named.
    u, t = FracLattice.unit(), (1, 1, 0, 1)
    assert t == u
    for c1, c2, rel, name in (
        (t, u, (u, u, u, u), "c1"),
        (u, t, (u, u, u, u), "c2"),
        (u, u, (t, u, u, u), "step 0: base"),
        (u, u, (u, t, u, u), "step 0: sub1"),
        (u, u, (u, u, t, u), "step 0: sub2"),
        (u, u, (u, u, u, t), "step 0: sum"),
    ):
        with pytest.raises(DerivationError, match=f"^{name} is not a canonical lattice$"):
            Derivation(1, c1, c2, ((1, QuotientRelation(*rel)),))


# A number field of a hand-built Derivation or QuotientRelation that is a
# float, bool or str: `sign not in (1, -1)` let -1.0 pass, a 2.0 level
# and degree compared equal to 2, and "2" raised a bare TypeError.
_U = FracLattice.unit()
_STEP = QuotientRelation(_U, _U, _U, _U)
_NOT_INT_FIELDS = [
    (lambda: Derivation(2.0, _U, _U, ()), "level must be an integer, got float"),
    (lambda: Derivation("2", _U, _U, ()), "level must be an integer, got str"),
    (lambda: Derivation(True, _U, _U, ()), "level must be an integer, got bool"),
    (lambda: Derivation(1, _U, _U, (), 2.0), "stated degree must be an integer, got float"),
    (lambda: Derivation(1, _U, _U, (), "1"), "stated degree must be an integer, got str"),
    (lambda: Derivation(1, _U, _U, ((1, _STEP), (-1.0, _STEP))), "step 1: sign must be an integer, got float"),
    (lambda: Derivation(1, _U, _U, ((True, _STEP),)), "step 0: sign must be an integer, got bool"),
    (lambda: QuotientRelation(_U, _U, _U, _U, (1.0, 1)), "stated orders must be an integer, got float"),
    (lambda: QuotientRelation(_U, _U, _U, _U, (1, "1")), "stated orders must be an integer, got str"),
    (lambda: QuotientRelation(_U, _U, _U, _U, (True, 1)), "stated orders must be an integer, got bool"),
    (lambda: QuotientRelation(_U, _U, _U, _U, (1, 1, 1)), "stated orders must be a pair of integers"),
    (lambda: QuotientRelation(_U, _U, _U, _U, 1), "stated orders must be a pair of integers"),
]


@pytest.mark.parametrize("build, message", _NOT_INT_FIELDS)
def test_constructors_refuse_non_integer_numbers(build, message):
    with pytest.raises(DerivationError, match=f"^{re.escape(message)}$"):
        build()


def test_constructors_keep_integer_numbers():
    rel = QuotientRelation(_U, _U, _U, _U, [1, 1])
    assert rel.stated_orders == (1, 1)
    d = Derivation(1, _U, _U, ((-1, rel), (1, rel)), 1)
    assert (d.level, d.stated_degree) == (1, 1) and validate_derivation(d)


def _count_canonical_checks(monkeypatch):
    calls = Counter()
    test = FracLattice.is_canonical.fget

    def counted(lat):
        calls["is_canonical"] += 1
        return test(lat)

    monkeypatch.setattr(FracLattice, "is_canonical", property(counted))
    return calls


COUNTED_PAIRS = [
    (2, sub(2, (1, 0)), sub(2, (1, 0))),
    (6, sub(6, (1, 0)), sub(6, (0, 1))),
    (12, sub(12, (1, 0)), sub(12, (2, 0), (0, 6))),
    (720, sub(720, (1, 0)), sub(720, (12, 0), (0, 60))),
    (48, sub(48, (4, 0), (0, 12)), sub(48, (1, 1))),
]


def test_canonical_checks_counted(monkeypatch):
    # Deriving and writing a certificate tests no lattice; reading and
    # checking one tests each lattice once, inside FracLattice.from_json.
    calls = _count_canonical_checks(monkeypatch)
    texts = [json.dumps(derive_same_degree(n, c1, c2).to_json()) for n, c1, c2 in COUNTED_PAIRS]
    assert calls["is_canonical"] == 0
    steps = set()
    for text in texts:
        calls.clear()
        d = Derivation.from_json(json.loads(text))
        assert validate_derivation(d)
        assert calls["is_canonical"] == 2 + 4 * len(d.steps)
        steps.add(len(d.steps))
    assert steps == {0, 2, 6}


def test_validation_builds_no_lattice(monkeypatch):
    # validate_derivation reads each lattice's ints and computes on them: on
    # a certificate derived or read back it builds no FracLattice, not even
    # the recomputed sum, and intersects nothing.
    derived = [derive_same_degree(n, c1, c2) for n, c1, c2 in COUNTED_PAIRS]
    read_back = [Derivation.from_json(json.loads(json.dumps(d.to_json()))) for d in derived]
    calls = Counter()
    meet = FracLattice.__and__

    def counted_build(cls, *args):
        calls["FracLattice"] += 1
        return tuple.__new__(cls, *args)

    def counted_meet(a, b):
        calls["&"] += 1
        return meet(a, b)

    monkeypatch.setattr(FracLattice, "__new__", counted_build)
    monkeypatch.setattr(FracLattice, "__and__", counted_meet)
    assert FracLattice.unit() + FracLattice.unit() and calls["FracLattice"] == 3  # the counter counts
    calls.clear()
    for d in derived + read_back:
        assert validate_derivation(d)
    assert sum(len(d.steps) for d in derived) == 16
    assert calls == {}


def test_one_intersection_per_lattice_per_link(monkeypatch):
    # A link of order c intersects each of its two lattices once with
    # (1/r)*B, r the product of its primes, only when r < c: 2 calls per
    # link whose c is not squarefree, that is 1 per such step, and none
    # for a squarefree c, where each lattice already lies in (1/c)*B.
    # One call per prime took 10 for the single link at 2310 = 2*3*5*7*11.
    calls = Counter()
    meet = FracLattice.__and__

    def counted(a, b):
        calls["&"] += 1
        return meet(a, b)

    monkeypatch.setattr(FracLattice, "__and__", counted)
    # (n, c1, c2, steps, & calls)
    pairs = [
        (2, sub(2, (1, 0)), sub(2, (1, 0)), 0, 0),
        (6, sub(6, (1, 0)), sub(6, (0, 1)), 2, 0),
        (720, sub(720, (1, 0)), sub(720, (12, 0), (0, 60)), 6, 0),
        (48, sub(48, (4, 0), (0, 12)), sub(48, (1, 1)), 6, 0),
        (2310, sub(2310, (1, 0)), sub(2310, (0, 1)), 2, 0),
        (4, sub(4, (1, 0)), sub(4, (0, 1)), 2, 2),
        (8, sub(8, (1, 0)), sub(8, (0, 1)), 2, 2),
        (12, sub(12, (1, 0)), sub(12, (0, 1)), 2, 2),
        (36, sub(36, (1, 0)), sub(36, (0, 1)), 2, 2),
    ]
    for n, c1, c2, steps, want in pairs:
        calls.clear()
        d = derive_same_degree(n, c1, c2)
        assert len(d.steps) == steps, n
        # A link's two steps both have sub1 of order c over the base.
        unsquarefree = [rel for _, rel in d.steps if not squarefree(rel.sub1.index_over(rel.base))]
        assert calls["&"] == len(unsquarefree) == want, n


def same_order_pairs(top):
    """(order, c1, c2) for every pair of equal-order subgroups at levels
    1..top, in oracle enumeration order."""
    pairs = []
    for n in range(1, top + 1):
        by_order = {}
        for s in oracle.exhaustive_subgroups(n):
            by_order.setdefault(s.order, []).append(s)
        pairs += [(order, c1, c2) for order, group in by_order.items() for c1 in group for c2 in group]
    return pairs


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


def _one_step(base, sub1, sub2):
    return Derivation(1, sub1, sub1, ((1, QuotientRelation(base, sub1, sub2, sub1 + sub2)),))


def _failures(base, sub1, sub2):
    return validate_derivation(_one_step(base, sub1, sub2)).failures


def _builds(base, sub1, sub2):
    """Whether validation finds the relation's subgroups meet in base alone."""
    return "step 0: subgroups intersect nontrivially" not in _failures(base, sub1, sub2)


def test_quotient_relation_basic():
    unit, sub1, sub2 = FracLattice.unit(), lattice(6, (1, 0)), lattice(6, (0, 1))
    rel = QuotientRelation(unit, sub1, sub2, sub1 + sub2)
    assert rel.to_json()["orders"] == [6, 6]
    assert rel.joint.index_over(rel.base) == 36
    # The step's [base] + [sum] - [sub1] - [sub2] is not zero, so it does
    # not telescope to [c1] - [c2] = 0; the step itself is sound.
    assert _failures(unit, sub1, sub2) == (
        "c1 is not killed by the level 1",
        "c2 is not killed by the level 1",
        "steps do not telescope to [c1] - [c2]",
    )


def test_quotient_relation_rejects():
    unit = FracLattice.unit()
    assert "step 0: subgroups intersect nontrivially" in _failures(
        unit, lattice(4, (1, 0)), lattice(4, (1, 0), (0, 2))
    )
    assert "step 0: sub1 does not contain the base lattice" in _failures(
        lattice(2, (1, 0)), unit, lattice(2, (1, 0))
    )
    # subgroups of different levels are lattices like any other
    l6, l4 = lattice(6, (1, 0)), lattice(4, (0, 1))
    assert QuotientRelation(unit, l6, l4, l6 + l4).to_json()["orders"] == [6, 4]
    assert _builds(unit, l6, l4)
    # trivial subgroups are allowed and give a degenerate relation, whose
    # four terms cancel
    assert validate_derivation(_one_step(unit, unit, unit))


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
        rel = QuotientRelation(FracLattice.unit(), l1, l2, l1 + l2)
        o1, o2 = rel.to_json()["orders"]
        assert rel.joint.index_over(rel.base) == o1 * o2
        lhs = ctx.degree_class(1) * ctx.degree_class(o1 * o2)
        rhs = ctx.degree_class(o1) * ctx.degree_class(o2)
        assert lhs == rhs


def test_index_identity_matches_intersection_exhaustive():
    # Every base B of level <= 12 and every pair of level-n subgroups
    # containing it: validation finds the step's subgroups meet trivially
    # exactly when sub1 & sub2 == B.
    seen = Counter()
    for n in range(1, 13):
        lats = [FracLattice.from_subgroup(s) for s in oracle.exhaustive_subgroups(n)]
        for base in lats:
            over = [lat for lat in lats if contains(lat, base)]
            for sub1 in over:
                for sub2 in over:
                    trivial = (sub1 & sub2) == base
                    assert _builds(base, sub1, sub2) == trivial, (base, sub1, sub2)
                    seen[trivial] += 1
    assert seen == {True: 13145, False: 25634}


def test_index_identity_matches_intersection_mixed_levels():
    # Random bases and subgroups over them at mixed levels; the validator's
    # verdict is checked for rejected and accepted steps.
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
        seen[trivial] += 1
    assert seen[True] > 100 and seen[False] > 100


def _reference_failures(d):
    """validate_derivation's failure lines, recomputed with lattice objects:
    containment and the Z^2 and level tests by `contains`, orders by
    `index_over`, the sum by `+`, trivial intersection by `&` itself, and a
    telescoping sum keyed by (den, basis)."""
    failures, level, unit = [], d.level, FracLattice.unit()
    if level < 1:
        failures.append(f"level {level} is not positive")
    for name, lat in (("c1", d.c1), ("c2", d.c2)):
        if level >= 1 and not contains(FracLattice.make(level, [(1, 0), (0, 1)]), lat):
            failures.append(f"{name} is not killed by the level {level}")
        if not contains(lat, unit):
            failures.append(f"{name} does not contain Z^2")
    total = Counter({(d.c1[0], basis(d.c1)): -1})
    total[d.c2[0], basis(d.c2)] += 1
    for i, (sign, rel) in enumerate(d.steps):
        base, sub1, sub2 = rel.base, rel.sub1, rel.sub2
        if sign not in (1, -1):
            failures.append(f"step {i}: sign {sign} is not +1/-1")
        if not contains(base, unit):
            failures.append(f"step {i}: base does not contain Z^2")
        orders = []
        for name, lat in (("sub1", sub1), ("sub2", sub2)):
            if contains(lat, base):
                orders.append(lat.index_over(base))
            else:
                failures.append(f"step {i}: {name} does not contain the base lattice")
        if (sub1 & sub2) != base:
            failures.append(f"step {i}: subgroups intersect nontrivially")
        if sub1 + sub2 != rel.joint:
            failures.append(f"step {i}: stored sum lattice is wrong")
        if len(orders) == 2 and rel.stated_orders not in (None, tuple(orders)):
            stated = list(rel.stated_orders)
            failures.append(f"step {i}: stated orders {stated} are not the indices {orders} over the base")
        for lat, mult in ((base, sign), (rel.joint, sign), (sub1, -sign), (sub2, -sign)):
            total[lat[0], basis(lat)] += mult
    if any(total.values()):
        failures.append("steps do not telescope to [c1] - [c2]")
    order1, order2 = (Fraction(lat[0] ** 2, lat[1] * lat[3]) for lat in (d.c1, d.c2))
    if order1 != order2:
        failures.append("goal subgroups have different orders")
    elif d.stated_degree is not None and d.stated_degree != order1:
        failures.append(f"stated degree {d.stated_degree} is not the order {order1} of the goal subgroups")
    return tuple(failures)


def test_one_step_failures_match_the_lattice_reference():
    # Every one-step relation over the lattices of the subgroups of level
    # <= 4, with two bases that do not contain Z^2 besides, the right and a
    # wrong stored sum, and a random level, sign, goal pair and stated
    # numbers: validate_derivation's failures, order included, are the
    # reference's.
    lats = {FracLattice.from_subgroup(s) for n in range(1, 5) for s in oracle.exhaustive_subgroups(n)}
    lats = sorted(lats, key=lambda lat: (lat[0], basis(lat)))
    assert len(lats) == 20
    bases = lats + [FracLattice((1, 2, 0, 1)), FracLattice((1, 2, 1, 2))]
    rng = random.Random(32)
    seen = Counter()
    for base, sub1, sub2 in itertools.product(bases, lats, lats):
        right = sub1 + sub2
        for joint in (right, base if base != right else FracLattice.unit()):
            if contains(sub1, base) and contains(sub2, base):
                o1, o2 = sub1.index_over(base), sub2.index_over(base)
            else:
                o1, o2 = 1, 2
            stated = rng.choice((None, (o1, o2), (o1, o2 + 1)))
            rel = QuotientRelation(base, sub1, sub2, joint, stated)
            c1, c2 = rng.choice(((sub1, sub1), (sub1, base), (base, sub1), (sub1, sub2)))
            den, a, _, e = c1
            degree = rng.choice((None, den**2 // (a * e), 7))  # the order of c1 over Z^2, floored
            level, sign = rng.choice((4, 4, 12, 2, 0, -3)), rng.choice((1, -1, 1, -1, 2))
            d = Derivation(level, c1, c2, ((sign, rel),), degree)
            failures = validate_derivation(d).failures
            assert failures == _reference_failures(d), d
            seen.update(re.sub(r"-?\d+", "N", line) for line in failures)
            seen["ok"] += not failures
    assert len(seen) == 13 and seen["ok"] > 0, seen  # all 12 kinds of failure line, and valid relations


def test_from_subgroup_is_make():
    # FracLattice.from_subgroup is closed form: every subgroup of every
    # level <= 24 gives the lattice FracLattice.make reduces its basis to.
    for n in range(1, 25):
        for s in oracle.exhaustive_subgroups(n):
            assert FracLattice.from_subgroup(s) == FracLattice.make(n, s.basis), s


def test_scaled_is_make():
    # k0._scaled, the closed form of (1/k) * lat that gives a link's lines
    # and stored sums, is the lattice FracLattice.make reduces to.
    for n in range(1, 13):
        for s in oracle.exhaustive_subgroups(n):
            lat = FracLattice.from_subgroup(s)
            for k in (1, 2, 3, 4, 6, 35):
                assert k0._scaled(lat, k) == FracLattice.make(lat[0] * k, basis(lat)), (lat, k)


# SHA-256 of the compact JSON certificate, and its step count, for the
# cyclic pairs generated by (1/n, 0), (0, 1/n) and (1/n, 1/n), taken from
# the chain of links.  Two cyclic lattices of one order have the same type,
# so one same-type link joins them: 2 steps, whatever Omega(n) is (the
# recursion this replaced took up to 2^Omega(n): 64 at n = 30030).
LARGE_ORDER_CERTS = {
    30030: [
        (2, "4bd44bf716634cc6f7875c4305d34c3c8074de83a3567e525eb1754e32c70a61"),
        (2, "b50e71fa503b773fb8ef511ae0ee12ded1bfca7d6a095a4bb06b849e24a14e72"),
        (2, "57486f475269a03ca112ffd148678284d61ec10779ec0ffb28ff46558ed5982b"),
    ],
    48048: [
        (2, "4d085e468d1a66a26f175c8869794c439a5cdc34c7acfb4fb0e714f296526638"),
        (2, "7cfb1309f27e2b8839c610c0ad8c1a6a95267fa198e1f1bea8a4a34fd65532ed"),
        (2, "91d6f179a984ecc303e33a69485215fb124af82df6d85ab248920824efed4c57"),
    ],
    32768: [
        (2, "c25ea026cf4bbaa8f3db3f469c8d75e8055cd963ef1f735844ea7d14b25f7f0e"),
        (2, "bfa0b364270e1ab716e9713e31babda136c480d7f84337f3511d6c693728b19b"),
        (2, "f38b07f207a17572ba1b09e35fbdff6dd6610168ca3a83c6961081d9408c6de0"),
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
            assert Fraction(1, 36) <= Fraction(*covolume(lat)) <= 1


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


def _omega(n):
    """The prime factors of n >= 1, counted with multiplicity."""
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count


def test_derive_steps_bounded_by_omega():
    # Every same-order pair at levels <= 12 ...
    pairs = same_order_pairs(12)
    assert len(pairs) == 2753
    # ... the cyclic pairs at 30030, 32768 and 48048, and at 32768 = 2^15 a
    # cyclic goal against one of type (2^7, 2^8): seven type-change links ...
    for n in sorted(LARGE_ORDER_CERTS):
        cyclic = [TorsionSubgroup(n, basis) for basis in (((1, 0), (0, n)), ((n, 0), (0, 1)), ((1, 1), (0, n)))]
        pairs += [(n, c1, c2) for c1, c2 in itertools.combinations(cyclic, 2)]
    pairs.append((32768, TorsionSubgroup(32768, ((1, 1), (0, 32768))), TorsionSubgroup(32768, ((128, 64), (0, 256)))))
    # ... and at MAX_DERIVE_ORDER = 2^4 * 5^5 a cyclic goal against one of
    # type (10, 5000): two type-change links and a same-type link.
    n = k0.MAX_DERIVE_ORDER
    pairs.append((n, TorsionSubgroup(n, ((1, 1), (0, n))), TorsionSubgroup(n, ((10, 70), (0, 5000)))))
    counts = [len(derive_same_degree(m, c1, c2).steps) for m, c1, c2 in pairs]
    for (m, c1, c2), steps in zip(pairs, counts):
        assert steps <= _omega(m) + 2, (m, c1, c2, steps)
    assert counts[-2:] == [14, 6]


# SHA-256 of the compact JSON of every certificate for the same-order pairs
# at levels 1..8, one per line, in oracle enumeration order; certificate
# bytes are part of the k0-derivation/1 contract.
CERTS_LEVEL_8_SHA256 = "b13a0eebb8d301937e8db624a1fe422f14685fec0fc56b4f2514b4fbf3c56a37"


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



# The benchmark's certify line at seed 1: the certificates of the first
# CERT_FLOOR_ROUNDS rounds of `make_certify(1)`, 240 pairs, in the compact
# JSON the worker writes.  A certify run reports `cert_digest`,
# `k0.steps_total` and `k0.cert_bytes_total` over the same texts.
CERTIFY_SEED_1_DIGEST = "af64b3b03973944f9d6bdc8dc6b8757c9c2610cda8928be7fe43edcd106208c9"
workloads = load_perfbench("workloads")


@pytest.fixture(scope="module")
def certify_seed_1():
    inputs = workloads.make_certify(1)
    texts = []
    for n, (a, b, d), (a2, b2, d2) in inputs["pairs"][: inputs["floor"]]:
        c1, c2 = TorsionSubgroup(n, ((a, b), (0, d))), TorsionSubgroup(n, ((a2, b2), (0, d2)))
        texts.append(json.dumps(derive_same_degree(n, c1, c2).to_json(), separators=(",", ":")))
    return inputs, texts


def test_certify_seed_1_pinned(certify_seed_1):
    inputs, texts = certify_seed_1
    assert len(texts) == 240
    assert workloads.digest(texts) == CERTIFY_SEED_1_DIGEST
    assert sum(len(json.loads(text)["steps"]) for text in texts) == 514
    assert sum(len(text.encode()) for text in texts) == 128_507
    # Every certificate and every corrupted copy of it, where the worker
    # corrupts one certificate in four.
    checks = []
    for i, text in enumerate(texts):
        for kind in (None, *workloads.CORRUPTIONS):
            cert = json.loads(text) if kind is None else workloads.corrupt(json.loads(text), kind)
            try:
                accepted = bool(validate_derivation(Derivation.from_json(cert)))
            except K0Error:
                accepted = False
            checks.append([i, kind, accepted])
    assert workloads.check_certify(inputs, {"certs": texts, "checks": checks}) == []


# Values of the wrong type for an integer field of a certificate.
NOT_INTS = (True, 1.0, "1", None, [1])
DELETE = object()


def _lattice_mutations(lat):
    """(key, value) pairs, each one change to the lattice dict `lat`; a
    callable value is applied to the field's current value."""
    den, rows = lat["den"], lat["basis"]
    (a, b), (z, d) = rows
    out = [("den", v) for v in (*NOT_INTS, 0, -1, -den, DELETE)]
    for r in range(2):
        for c in range(2):
            for v in NOT_INTS:
                basis = [list(row) for row in rows]
                basis[r][c] = v
                out.append(("basis", basis))
    out += [("basis", v) for v in ([], rows[:1], rows + rows[:1], "ab", 5, None, {"0": rows[0]}, DELETE)]
    out += [
        ("basis", lambda rows: tuple(tuple(row) for row in rows)),
        ("basis", lambda rows: iter([iter(row) for row in rows])),
        ("basis", lambda rows: [iter(row) for row in rows]),
        ("basis", lambda rows: [iter([*rows[0], 0]), iter(rows[1])]),
        ("basis", lambda rows: [iter([float(rows[0][0]), rows[0][1]]), iter(rows[1])]),
        ("basis", [[a, b], [z, d, 0]]),
        ("basis", [[a], [z, d]]),
    ]
    # Bases of full rank that are not canonical, and two that are singular.
    out += [
        ("basis", [[a, b + d], [z, d]]),
        ("basis", [[-a, -b], [z, -d]]),
        ("basis", [[z, d], [a, b]]),
        ("basis", [[a, b], [a, b + d]]),
        ("basis", [[a, b], [2 * a, 2 * b]]),
        ("basis", [[0, 0], [0, 0]]),
    ]
    out.append(("den", 2 * den))
    out.append(("basis", [[2 * a, 2 * b], [z, 2 * d]]))
    return out


def _at(cert, path):
    for part in path:
        cert = cert[part]
    return cert


def _certificate_mutations(cert, i):
    """(path, key, value) triples, each one change to `cert`: every lattice
    change of `_lattice_mutations` to one of its lattices, and every change
    of its level, its degree and one step's sign and orders.  Which lattice
    and which step turn with i and the change."""
    steps = cert["steps"]
    places = [("c1",), ("c2",)] + [("steps", j, name) for j in range(len(steps)) for name in ("base", "sub1", "sub2", "sum")]
    changes = [_lattice_mutations(_at(cert, path)) for path in places]
    out = []
    for k in range(len(changes[0])):
        at = (i + k) % len(places)
        out.append((places[at], *changes[at][k]))
    for v in (*NOT_INTS, 0, -1, lambda level: 2 * level, DELETE):
        out.append(((), "level", v))
    for v in (True, 1.0, "1", [1], 0, lambda degree: degree + 1, DELETE):
        out.append(((), "degree", v))
    step = ("steps", i % len(steps))
    for v in (*NOT_INTS, 0, 2, lambda sign: -sign, DELETE):
        out.append((step, "sign", v))
    orders = _at(cert, step)["orders"]
    for v in ("12", 5, {"0": 1}, [1], orders + [1], [orders[0] + 1, orders[1]], DELETE):
        out.append((step, "orders", v))
    for v in NOT_INTS:
        out.append((step, "orders", [v, orders[1]]))
        out.append((step, "orders", [orders[0], v]))
    return out


def _outcome(cert):
    """What reading and checking `cert` gives: its failure list, or the
    type and message of what it raised."""
    try:
        return ["checked", list(validate_derivation(Derivation.from_json(cert)).failures)]
    except K0Error as exc:
        return ["raised", type(exc).__name__, str(exc)]


def test_certificate_read_path_pinned(certify_seed_1):
    # One SHA-256 over the outcome of each certificate of the certify pin
    # and of each single-field change to it: every way of reading a
    # lattice, a step and the goals, malformed or not, stays as it is.
    _, texts = certify_seed_1
    digest = hashlib.sha256()
    count = 0
    for i, text in enumerate(texts):
        digest.update(json.dumps(_outcome(json.loads(text))).encode())
        for path, key, value in _certificate_mutations(json.loads(text), i):
            cert = json.loads(text)
            target = _at(cert, path)
            if value is DELETE:
                del target[key]
            else:
                target[key] = value(target[key]) if callable(value) else value
            digest.update(json.dumps(_outcome(cert)).encode())
            count += 1
    assert count == 22_560
    assert digest.hexdigest() == "aa478dd9108de637f51bb88409f30d3fd9b9666a3fd9a40466d078e224d1a19b"


def test_link_lines_are_their_own_intersections(monkeypatch, certify_seed_1):
    # Every link's l1, l2 lie in (1/c)*B, so l & (1/c)*B == l: the identity
    # that lets a squarefree link (r = c) skip its intersections.  And
    # testing l.member(point) alone, with `&` the identity at every c,
    # picks the same l3, so the same steps.  Over every same-order pair at
    # levels <= 12 and the first certify-tail pair at each tail level.
    links = []
    link = k0._link

    def recorded(base, l1, l2, c, primes):
        out = link(base, l1, l2, c, primes)
        links.append(((base, l1, l2, c, primes), out))
        return out

    inputs, _ = certify_seed_1
    tail = {}
    for n, c1, c2 in inputs["pairs"]:
        if n in workloads.CERT_TAIL_LEVELS:
            tail.setdefault(n, (n, c1, c2))
    assert len(tail) == len(workloads.CERT_TAIL_LEVELS)
    pairs = same_order_pairs(12)
    for n, (a, b, d), (a2, b2, d2) in tail.values():
        pairs.append((n, TorsionSubgroup(n, ((a, b), (0, d))), TorsionSubgroup(n, ((a2, b2), (0, d2)))))
    monkeypatch.setattr(k0, "_link", recorded)
    for m, c1, c2 in pairs:
        derive_same_degree(m, c1, c2)
    assert any(not squarefree(args[3]) for args, _ in links)
    for (base, l1, l2, c, _), _ in links:
        joint = k0._scaled(base, c)
        assert l1 & joint == l1 and l2 & joint == l2, (base, l1, l2, c)
    monkeypatch.setattr(FracLattice, "__and__", lambda lat, other: lat)
    for args, out in links:
        assert link(*args) == out, args


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
        "step 0: stated orders [999, 1] are not the indices [6, 6] over the base",
    )
    assert failures(lambda data: data["steps"][1].__setitem__("orders", [2, 3])) == (
        "step 1: stated orders [2, 3] are not the indices [6, 6] over the base",
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
    for steps in ({"a": 1}, 5, None):
        with pytest.raises(DerivationError, match="malformed certificate: steps must be a list"):
            Derivation.from_json(dict(good, steps=steps))
    with pytest.raises(DerivationError, match="malformed certificate: step 1 must be an object"):
        Derivation.from_json(dict(good, steps=[good["steps"][0], [1, 2]]))
