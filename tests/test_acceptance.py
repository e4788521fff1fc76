"""Acceptance suite: seven criteria, one test and one pass line each.

Run as `pytest -s tests/test_acceptance.py` to see the timing lines; each
test enforces its own wall-clock budget.
"""

import json
import random
import time
from fractions import Fraction

from k0av import oracle
from k0av.arith import TorsionSubgroup, det, matrix_isogeny_degree
from k0av.cli import main
from k0av.contexts import CM, CharPEndZ, EndZ, Supersingular, make_context
from k0av.k0 import Derivation, derive_same_degree, k0_class, validate_derivation
from k0av.kernels import KernelSpec, class_in_image, kernel_class, kernel_of_matrix_endo
from k0av.quadforms import class_group, compose, prime_class, principal_form, reduce_form

from conftest import fundamental_discs


def primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(n) if sieve[p]]


def finish(num, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} blew its {budget}s budget: {elapsed:.2f}s"
    print(f"[PASS] criterion {num}/7: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_surface_duality(tmp_path, capsys):
    started = time.perf_counter()
    ctx = EndZ(2)
    ctx_path = tmp_path / "ctx.json"
    ctx_path.write_text(json.dumps({"case": "end_z", "g": 2}))
    for ell in primes_below(101):
        cls = ctx.degree_class(ell)
        assert cls.order() == 4
        for k in (1, 2, 3):
            assert not (cls**k).is_identity
        assert (cls**4).is_identity
        dual = cls.inverse()
        assert dual == ctx.degree_class(ell**3)
        assert dual != cls
        code = main(
            ["eval", "--ctx", str(ctx_path), f"[1; {ell}]", "--equals", f"dual([1; {ell}])"]
        )
        assert code == 1
        code = main(
            [
                "eval",
                "--ctx",
                str(ctx_path),
                f"[1; {ell}] + dual([1; {ell}])",
                "--equals",
                "[2; 1]",
            ]
        )
        assert code == 0
    capsys.readouterr()
    finish(1, "surface prime classes have order 4 and differ from their duals", started, 1.0)


def test_criterion_2_class_group_oracle():
    started = time.perf_counter()
    for d in fundamental_discs(10_000):
        assert [f.triple() for f in class_group(d).elements] == [
            f.triple() for f in oracle.enumerate_reduced_forms(d)
        ], d
    for d in fundamental_discs(500):
        cg = class_group(d)
        elements = set(cg.elements)
        e = principal_form(d)
        for f in cg.elements:
            assert compose(e, f) == f
            inv = reduce_form(f.inverse())
            assert inv in elements and compose(f, inv) == e
            for g in cg.elements:
                assert compose(f, g) in elements
                assert compose(f, g) == compose(g, f)
        for f in cg.elements:
            for g in cg.elements:
                fg = compose(f, g)
                for h in cg.elements:
                    assert compose(fg, h) == compose(f, compose(g, h))
    finish(2, "class groups match the oracle and satisfy the axioms", started, 10.0)


def test_criterion_3_norm_recognition():
    started = time.perf_counter()
    disagreements = 0
    for d in (-4, -8, -20, -23, -47):
        ctx = CM(d)
        squares = oracle.square_class_triples(d)
        for ell in primes_below(500):
            if ctx.is_norm(ell):
                witness = oracle.norm_witness_search(ell, d)
                if witness is None or not oracle.check_witness(ell, d, witness):
                    disagreements += 1
            else:
                pc = prime_class(ell, d)
                if not pc.is_inert and pc.form.triple() in squares:
                    disagreements += 1
                if oracle.norm_witness_search(ell, d) is not None:
                    disagreements += 1
    assert disagreements == 0
    finish(3, "norm recognition agrees with witness search", started, 30.0)


def test_criterion_4_supersingular_collapse():
    started = time.perf_counter()
    for p in (2, 3, 7, 101):
        ctx = Supersingular(p)
        degrees = [1, 2, p, p * p, 91, Fraction(3, 11), Fraction(1, p)]
        kernels = [
            KernelSpec(),
            KernelSpec(mup=1),
            KernelSpec(zp=2, alphap=1),
        ]
        for n in (1, 2, 5):
            classes = [k0_class(ctx, n, q) for q in degrees]
            classes += [k0_class(ctx, n, k) for k in kernels]
            assert all(c == classes[0] for c in classes)
            assert classes[0] != k0_class(ctx, n + 1, 1)
    finish(4, "supersingular classes depend only on multiplicity", started, 1.0)


def test_criterion_5_frobenius_and_image():
    started = time.perf_counter()
    ctx = CharPEndZ(5)
    frob = kernel_class(ctx, KernelSpec(mup=1))
    assert frob.data == (-1, ())
    acc = frob
    for _ in range(100):
        assert not acc.is_identity
        acc = acc * frob

    rng = random.Random(20260815)
    done = 0
    while done < 500:
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(m) == 0:
            continue
        assert kernel_of_matrix_endo(m, ctx).deg_p == 0
        done += 1

    squarefree = [
        q for q in range(1, 101) if all(q % (r * r) for r in range(2, 11))
    ]
    for a in range(-10, 11):
        for q in squarefree:
            member = class_in_image(5, a, q)
            assert member == (q % 5 != 0)
            # multiplying by p lands in the other coset: index exactly 2
            assert member != class_in_image(5, a, 5 * q)
    finish(5, "Frobenius class is non-torsion and the image has index 2", started, 5.0)


def test_criterion_6_derivation_engine():
    started = time.perf_counter()
    for n in range(1, 13):
        by_order = {}
        for s in oracle.exhaustive_subgroups(n):
            by_order.setdefault(s.order, []).append(s)
        for order, group in by_order.items():
            for c1 in group:
                for c2 in group:
                    d = derive_same_degree(order, c1, c2)
                    assert validate_derivation(d), (n, order)
                    assert oracle.check_certificate(d.to_json()) == [], (n, order)

    rng = random.Random(7)
    sample = None
    for n in range(13, 31):
        by_order = {}
        for s in oracle.exhaustive_subgroups(n):
            by_order.setdefault(s.order, []).append(s)
        orders = [o for o, group in by_order.items() if len(group) >= 2]
        for _ in range(200):
            order = rng.choice(orders)
            c1, c2 = rng.sample(by_order[order], 2)
            d = derive_same_degree(order, c1, c2)
            assert validate_derivation(d), (n, order)
            if d.steps:
                sample = d

    assert sample is not None
    payload = sample.to_json()

    def corrupted(mutate):
        data = json.loads(json.dumps(payload))
        mutate(data)
        return validate_derivation(Derivation.from_json(data))

    assert not corrupted(lambda data: data["steps"][0].__setitem__("sign", -data["steps"][0]["sign"]))
    assert not corrupted(lambda data: data["steps"].pop(0))
    assert not corrupted(lambda data: data["steps"][0]["sub1"]["basis"][0].__setitem__(0, 10**6))
    finish(6, "derivations validate exhaustively and reject corruption", started, 15.0)


def test_criterion_7_property_suite():
    started = time.perf_counter()
    rng = random.Random(99)
    pool = [EndZ(1), EndZ(2), EndZ(3), CM(-20), CM(-23), CM(-47), Supersingular(7), CharPEndZ(5)]

    def random_degree(ctx):
        while True:
            q = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            p = getattr(ctx, "p", 0)
            if isinstance(ctx, CharPEndZ) and (q.numerator % p == 0 or q.denominator % p == 0):
                continue
            return q

    for _ in range(1000):
        ctx = rng.choice(pool)
        q1, q2 = random_degree(ctx), random_degree(ctx)
        assert ctx.degree_class(q1 * q2) == ctx.degree_class(q1) * ctx.degree_class(q2)

    for _ in range(1000):
        ctx = rng.choice(pool)
        cls = ctx.degree_class(random_degree(ctx))
        assert cls.inverse().inverse() == cls
        assert (cls * cls.inverse()).is_identity

    for _ in range(1000):
        ctx = rng.choice(pool)
        n = random_degree(ctx)
        m = random_degree(ctx)
        lhs = k0_class(ctx, 1, n * m) + k0_class(ctx, 1, 1)
        rhs = k0_class(ctx, 1, n) + k0_class(ctx, 1, m)
        assert lhs == rhs

    done = 0
    while done < 1000:
        g = rng.randint(1, 3)
        ctx = EndZ(g)
        n = rng.randint(1, 3)
        m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        if det(m) == 0:
            continue
        deg = matrix_isogeny_degree(m, g).as_fraction()
        assert ctx.degree_class(deg).is_identity
        done += 1
    finish(7, "homomorphism and duality properties hold", started, 10.0)
