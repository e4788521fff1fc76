"""Grothendieck-group classes, quotient relations, and derivation certificates."""

import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from k0av import k0, oracle
from k0av.arith import TorsionSubgroup, divisors
from k0av.contexts import CM, CharPEndZ, EndZ, Supersingular
from k0av.errors import ContextMismatchError, DerivationError, K0Error, LevelMismatchError
from k0av.k0 import (
    Derivation,
    FracLattice,
    K0Element,
    QuotientRelation,
    derive_same_degree,
    k0_class,
    quotient_relation,
    validate_derivation,
)
from k0av.kernels import KernelMultiset


def sub(level, *gens):
    return TorsionSubgroup.from_generators(level, gens)


# ---------------------------------------------------------------- K0 classes


def test_element_algebra_frozen():
    ctx = EndZ(2)
    x = k0_class(ctx, 1, 3)
    assert x.n == 1 and x.deg == ctx.degree_class(3)
    assert x.dual() != x
    assert x + x.dual() == K0Element(2, ctx.identity())
    assert (x - x).is_zero
    assert x.scale(4) == K0Element(4, ctx.identity())
    assert x.describe() == "(1, exponents mod 4: 3^1)"
    assert x.to_json() == {
        "n": 1,
        "degree_class": {"case": "end_z", "modulus": 4, "exponents": [[3, 1]]},
    }


def test_scale_matches_repeated_sum():
    cases = ((EndZ(2), Fraction(3, 10)), (CM(-20), 33), (CharPEndZ(5), KernelMultiset(5, et_p=2)))
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
    y = k0_class(CharPEndZ(5), 1, KernelMultiset(5, et_p=near)).scale(near)
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
    k = KernelMultiset(5, mu_p=1)
    assert k0_class(Supersingular(5), 1, k).deg.is_identity
    cls = k0_class(CharPEndZ(5), 1, k)
    assert cls.deg.data == (-1, ())
    with pytest.raises(ContextMismatchError, match="characteristic-p"):
        k0_class(EndZ(2), 1, k)


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
    assert unit.vol == 1
    half = FracLattice.make(2, [[1, 0], [0, 1]])
    assert half.vol == Fraction(1, 4)
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
    assert FracLattice.unit().extended_by([1, 0], 6) == a
    # extending by a member changes nothing
    assert a.extended_by([1, 0], 6) == a


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
        assert (l1 + l2).vol * (l1 & l2).vol == l1.vol * l2.vol


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
    zero = FracLattice(1, ((0, 0), (0, 1)))  # member() divides by a*d = 0
    with pytest.raises(DerivationError, match="c1 is not a canonical lattice"):
        Derivation(1, zero, u, ()).to_json()
    with pytest.raises(DerivationError, match="c1 is not a canonical lattice"):
        Derivation(1, zero, u, ()).degree
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


# ------------------------------------------------------ quotient relations


def test_quotient_relation_basic():
    c1 = sub(6, (1, 0))
    c2 = sub(6, (0, 1))
    rel = quotient_relation(6, c1, c2)
    assert rel.base == FracLattice.unit()
    assert rel.to_json()["orders"] == [6, 6]
    assert rel.joint.index_over(rel.base) == 36
    vec = rel.vector()
    assert vec[rel.base] == 1 and vec[rel.joint] == 1
    assert vec[rel.sub1] == -1 and vec[rel.sub2] == -1


def test_quotient_relation_rejects():
    with pytest.raises(LevelMismatchError):
        quotient_relation(6, sub(6, (1, 0)), sub(4, (0, 1)))
    with pytest.raises(DerivationError, match="intersect nontrivially"):
        quotient_relation(4, sub(4, (1, 0)), sub(4, (1, 0), (0, 2)))
    # trivial subgroups are allowed and give a degenerate relation
    rel = quotient_relation(3, TorsionSubgroup.trivial(3), TorsionSubgroup.trivial(3))
    assert rel.vector() == {}


def test_quotient_relation_degree_balance():
    # indexes multiply: |joint/base| = |sub1/base| * |sub2/base|, so the
    # formal relation is degree-consistent in every context
    rng = random.Random(13)
    ctx = EndZ(2)
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5, 6, 8, 9, 10, 12))
        groups = [
            TorsionSubgroup.from_rows(n, ((x, b), (0, n // x)))
            for x in (d for d in range(1, n + 1) if n % d == 0)
            for b in range(n // x)
        ]
        c1, c2 = rng.choice(groups), rng.choice(groups)
        l1, l2 = FracLattice.from_subgroup(c1), FracLattice.from_subgroup(c2)
        if (l1 & l2) != FracLattice.unit():
            continue
        rel = quotient_relation(n, c1, c2)
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
            assert Fraction(1, 36) <= lat.vol <= 1


def all_subgroups_of_order(n):
    out = []
    for x in (d for d in range(1, n + 1) if n % d == 0):
        for b in range(n // x):
            out.append(TorsionSubgroup.from_rows(n, ((x, b), (0, n // x))))
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
