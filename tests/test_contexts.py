"""Endomorphism contexts and canonical degree classes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0av import oracle
from k0av.arith import FactoredRational, exponent_table, factor
from k0av.contexts import (
    _CONTEXTS,
    CM,
    CharPEndZ,
    EndZ,
    IsogenyContext,
    OrdinaryCM,
    Supersingular,
    make_context,
)
from k0av.errors import ContextError, ContextMismatchError, KernelInputError
from k0av.kernels import class_in_image
from k0av.quadforms import is_fundamental_discriminant, prime_class, square_classes

from conftest import fundamental_discs


def test_make_context_cases():
    assert make_context({"case": "end_z", "g": 2}) == EndZ(2)
    assert make_context({"case": "cm", "disc": -20}) == CM(-20)
    assert make_context({"case": "supersingular", "p": 7}) == Supersingular(7)
    assert make_context({"case": "ordinary_cm", "disc": -20, "p": 3}) == OrdinaryCM(-20, 3)
    assert make_context({"case": "char_p_end_z", "p": 5}) == CharPEndZ(5)


def test_make_context_rejects():
    with pytest.raises(ContextError):
        make_context({"case": "end_z", "g": 0})
    with pytest.raises(ContextError):
        make_context({"case": "totally_real", "g": 1})
    with pytest.raises(ContextError):
        make_context({"case": "end_z", "g": 2, "p": 3})  # unknown field for case
    with pytest.raises(ContextError):
        make_context({"case": "cm"})  # missing disc
    with pytest.raises(ContextError):
        make_context({"case": "end_z", "g": True})  # ints only
    with pytest.raises(ContextError):
        make_context({"case": "supersingular", "p": 8})
    with pytest.raises(ContextError):
        make_context({"case": "ordinary_cm", "disc": -4, "p": 3})  # 3 inert in Q(i)
    with pytest.raises(Exception):
        make_context({"case": "cm", "disc": -12})  # non-maximal order
    for case in (["x"], {"a": 1}):  # unhashable: refused by name, not by TypeError
        with pytest.raises(ContextError, match="field case must be a string"):
            make_context({"case": case})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: EndZ(1.5), "g"),
        (lambda: CM(-20.0), "disc"),
        (lambda: OrdinaryCM("-20", 3), "disc"),
        (lambda: OrdinaryCM(-20, 3.0), "p"),
        (lambda: Supersingular(True), "p"),
        (lambda: CharPEndZ(5.0), "p"),
        (lambda: make_context({"case": "end_z", "g": 1.5}), "g"),
        (lambda: make_context({"case": "ordinary_cm", "disc": -13, "p": "3"}), "p"),
    ],
    ids=["end_z", "cm", "ordinary_cm_disc", "ordinary_cm_p", "supersingular_bool", "char_p", "file", "file_p_first"],
)
def test_constructors_refuse_a_non_integer_field(build, field):
    # One check, in the constructors, names the field for Python callers
    # and context files alike; the fields are checked before their values.
    with pytest.raises(ContextError) as info:
        build()
    assert str(info.value) == f"field {field} must be an integer"


def test_ordinary_cm_split_requirement():
    # (-20 | 3) = +1 since 1^2 = -20 mod 3
    assert OrdinaryCM(-20, 3).p == 3
    with pytest.raises(ContextError, match="does not split"):
        OrdinaryCM(-20, 11)


def test_end_z_distance_frozen():
    ctx = EndZ(2)
    for ell in (2, 3, 97):
        cls = ctx.degree_class(ell)
        assert cls.data == ((ell, 1),)
        assert cls.order() == 4
        assert cls.inverse() == ctx.degree_class(ell**3)
        assert cls.inverse() != cls
    assert ctx.degree_class(16).is_identity
    assert ctx.degree_class(Fraction(1, 2)).data == ((2, 3),)
    assert ctx.degree_class(Fraction(2, 8)).data == ((2, 2),)


def test_end_z_exact_order_2g():
    for g in (1, 2, 3):
        ctx = EndZ(g)
        for ell in (2, 3, 5, 7, 11):
            cls = ctx.degree_class(ell)
            for k in range(1, 4 * g + 1):
                assert (cls**k).is_identity == (k % (2 * g) == 0)


def test_end_z_matrix_degrees_are_trivial():
    # degrees of matrix endomorphisms land in the identity class
    from k0av.arith import det, matrix_isogeny_degree

    rng = random.Random(5)
    for g in (1, 2, 3):
        ctx = EndZ(g)
        done = 0
        while done < 50:
            n = rng.randint(1, 3)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if det(m) == 0:
                continue
            assert ctx.degree_class(matrix_isogeny_degree(m, g).as_fraction()).is_identity
            done += 1


def test_cm_distance_frozen():
    ctx = CM(-20)
    assert ctx.degree_class(29).is_identity
    assert ctx.degree_class(21).is_identity  # 3 and 7 both map to (2,2,3)
    cls3 = ctx.degree_class(3)
    assert cls3.to_json() == {"case": "cm", "coset_rep": [2, 2, 3], "inert_odd": []}
    assert cls3.describe() == "coset (2, 2, 3)"
    assert cls3.order() == 2
    cls11 = ctx.degree_class(11)
    assert cls11.to_json() == {"case": "cm", "coset_rep": [1, 0, 5], "inert_odd": [11]}
    assert cls11.describe() == "coset (1, 0, 5); odd inert exponents at 11"
    assert (cls11 * cls11).is_identity
    assert ctx.degree_class(Fraction(1, 3)) == cls3  # inverse = itself mod squares
    cls33 = ctx.degree_class(33)
    assert cls33.to_json() == {"case": "cm", "coset_rep": [2, 2, 3], "inert_odd": [11]}
    assert cls33.describe() == "coset (2, 2, 3); odd inert exponents at 11"


def test_cm_identity_kernel_is_norm_group():
    ctx = CM(-20)
    # norms: products of split/ramified classes landing in C^2 with even
    # inert exponents; every identity claim has a witness
    for q in (1, 4, 5, 9, 21, 29, 41, 121):
        assert ctx.is_norm(q), q
        w = oracle.norm_witness_search(q, -20)
        assert w is not None and oracle.check_witness(q, -20, w)
    for q in (2, 3, 7, 11, 23):
        assert not ctx.is_norm(q), q
        assert oracle.norm_witness_search(q, -20) is None


def test_cm_is_norm_matches_oracle_on_primes():
    for d in (-4, -8, -20, -23):
        ctx = CM(d)
        sq = oracle.square_class_triples(d)
        for ell in range(2, 200):
            if oracle.prime_exponents(ell) != {ell: 1}:
                continue
            main = ctx.is_norm(ell)
            witness = oracle.norm_witness_search(ell, d)
            if main:
                assert witness is not None and oracle.check_witness(ell, d, witness), (d, ell)
            else:
                assert witness is None, (d, ell)
                from k0av.quadforms import prime_class

                pc = prime_class(ell, d)
                assert pc.is_inert or pc.form.triple() not in sq


def test_cm_multiplicativity_random():
    rng = random.Random(1)
    for d in (-20, -23, -47):
        ctx = CM(d)
        for _ in range(200):
            q1 = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            q2 = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            assert ctx.degree_class(q1 * q2) == ctx.degree_class(q1) * ctx.degree_class(q2)


def test_cm_prime_powers_follow_parity():
    # -84 ramifies 2, 3 and 7; -5291 = -11 * 13 * 37 has class number 36
    for ctx in (CM(-84), OrdinaryCM(-84, 5), CM(-5291), OrdinaryCM(-5291, 3)):
        kinds = set()
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            kinds.add(prime_class(ell, ctx.disc).kind)
            cls = ctx.degree_class(ell)
            for e in range(8):
                assert ctx.degree_class(ell**e) == cls**e, (ctx, ell, e)
                assert ctx.degree_class(Fraction(1, ell**e)) == cls**e, (ctx, ell, e)
                assert ctx.degree_class(ell**e).is_identity == (e % 2 == 0 or cls.is_identity)
        assert kinds == {"split", "inert", "ramified"}, ctx


def test_cm_inverse_is_self():
    rng = random.Random(4)
    for ctx in (CM(-20), CM(-1671), CM(-5291), OrdinaryCM(-84, 5), OrdinaryCM(-5291, 3)):
        for _ in range(100):
            cls = ctx.degree_class(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)))
            assert cls.inverse() == cls
            assert (cls * cls).is_identity


def _naive_power(cls, inv, k):
    """cls^k as |k| products of cls, or of inv, a reference inverse, for k < 0."""
    out = cls.ctx.identity()
    for _ in range(abs(k)):
        out = out * (cls if k >= 0 else inv)
    return out


_HUGE = 10**4000 - 1  # odd, and 3 mod 4 and mod 6


def test_power_matches_repeated_product():
    from k0av.kernels import KernelSpec, kernel_class

    cases = {
        EndZ(3): [2, 12, Fraction(5, 9), 2**5 * 7],
        CM(-84): [2, 5, 11, 5 * 11, Fraction(13, 3)],
        Supersingular(7): [2, Fraction(3, 5)],
        OrdinaryCM(-84, 5): [5, 11, Fraction(5, 13)],
        CharPEndZ(7): [3, Fraction(2, 15)],
    }
    for ctx, degrees in cases.items():
        # (class, its inverse built without `inverse`, its p-degree)
        classes = [(ctx.degree_class(q), ctx.degree_class(1 / Fraction(q)), 0) for q in degrees]
        if isinstance(ctx, CharPEndZ):
            kernel, dual = KernelSpec(zp=3, mup=1, coprime=6), KernelSpec(zp=1, mup=3, coprime=6)
            classes.append((kernel_class(ctx, kernel), kernel_class(ctx, dual), kernel.deg_p))
        for cls, inv, a in classes:
            assert cls.inverse() == inv, (ctx, cls)
            for k in range(-6, 7):
                got = cls**k
                assert got == _naive_power(cls, inv, k), (ctx, cls, k)
                assert got.to_json() == _naive_power(cls, inv, k).to_json(), (ctx, cls, k)
            for k in (_HUGE, -_HUGE):
                got = cls**k
                if isinstance(ctx, EndZ):
                    assert got == _naive_power(cls, inv, k % ctx.modulus), (ctx, cls, k)
                elif isinstance(ctx, Supersingular):
                    assert got == _naive_power(cls, inv, 0) == ctx.identity(), (ctx, cls, k)
                elif isinstance(ctx, CharPEndZ):
                    assert got.data[0] == k * a, (ctx, cls, k)
                    assert got.data[1] == _naive_power(cls, inv, k % 2).data[1], (ctx, cls, k)
                else:
                    assert got == _naive_power(cls, inv, k % 2), (ctx, cls, k)


def test_prime_mask_memo_is_bounded_and_caches_no_raise():
    from k0av.contexts import _prime_mask
    from k0av.errors import DiscriminantError

    ctx = CM(-84)
    for q in range(2, 200):
        ctx.degree_class(q)
    assert _prime_mask.cache_info().maxsize == 512
    size = _prime_mask.cache_info().currsize
    assert size > 0
    for fn in (prime_class, _prime_mask):
        with pytest.raises(KernelInputError, match="4 is not prime"):
            fn(4, -84)
        with pytest.raises(DiscriminantError):
            fn(5, -12)
    assert _prime_mask.cache_info().currsize == size


def _primes_below(n):
    return [p for p in range(2, n) if all(p % q for q in range(2, int(p**0.5) + 1))]


def test_prime_mask_is_read_off_the_residue_mod_d():
    # Genus theory: whether p splits, and the coset of a prime above it in
    # C/C^2, depend only on p mod |d|.  The memo is keyed by that residue, and
    # its answer must match each prime's own `prime_class`, p | d, p = |d|
    # and p = 2 included.
    from k0av.contexts import _prime_mask

    primes = _primes_below(5000)
    cases = [(d, 1000) for d in fundamental_discs(500)] + [(d, 5000) for d in (-20, -84, -1671, -5291)]
    for d, bound in cases:
        sq = square_classes(d)
        for p in primes:
            if p >= bound:
                break
            pc = prime_class(p, d)
            want = None if pc.is_inert else sq.mask_of[sq.rep(pc.form)]
            assert _prime_mask(p % -d, d) == want, (p, d)


def test_prime_mask_memo_holds_one_entry_per_residue():
    from k0av.contexts import _prime_mask

    _prime_mask.cache_clear()
    ctx = CM(-20)
    for p in _primes_below(10**4):
        ctx.degree_class(p)
    # The primes below 10^4 fall into the 8 units mod 20 and the ramified 2 and 5.
    assert _prime_mask.cache_info().currsize <= 10


# The degree-class arithmetic that bit masks replaced: a class is (coset
# representative form, inert primes), with one Gauss composition per split
# prime and per product, then a coset lookup.
def _reference_degree_data(ctx, q):
    from k0av.quadforms import compose, principal_form

    rep = None
    inert = []
    for p, e in q.exps:
        if e % 2 == 0:
            continue
        pc = prime_class(p, ctx.disc)
        if pc.is_inert:
            inert.append(p)
        else:
            rep = pc.form if rep is None else compose(rep, pc.form)
    if rep is None:
        return (principal_form(ctx.disc), tuple(inert))
    return (ctx.square_classes.rep(rep), tuple(inert))


def _reference_mul(ctx, x, y):
    from k0av.quadforms import compose

    rep = ctx.square_classes.rep(compose(x[0], y[0]))
    return (rep, tuple(sorted(set(x[1]) ^ set(y[1]))))


def _reference_rendering(ctx, x):
    """A reference class as `to_json` and `describe` render it."""
    from k0av.quadforms import principal_form

    rep, inert = x
    parts = [f"coset {rep}"] + (["odd inert exponents at " + ", ".join(map(str, inert))] if inert else [])
    text = "identity" if (rep, inert) == (principal_form(ctx.disc), ()) else "; ".join(parts)
    return {"case": ctx.case, "coset_rep": list(rep.triple()), "inert_odd": list(inert)}, text


def _rendering(cls):
    return cls.to_json(), cls.describe()


def _seeded_degrees(rng):
    primes = [q for q in range(2, 400) if oracle.prime_exponents(q) == {q: 1}]
    for _ in range(60):
        num = 1
        for _ in range(rng.randint(0, 5)):
            num *= rng.choice(primes) ** rng.randint(1, 3)
        den = rng.choice(primes) ** rng.randint(1, 2) if rng.random() < 0.3 else 1
        yield Fraction(num, den)
    yield from (1, 2, 4, 9, Fraction(1, 2), Fraction(6, 35))


def test_masks_agree_with_composition_reference():
    rng = random.Random(20261018)
    for ctx in [CM(d) for d in (-4, -20, -84, -1671, -3315, -5291)] + [OrdinaryCM(-84, 5)]:
        degrees = list(_seeded_degrees(rng))
        classes = []  # (class, its reference data)
        for q in degrees:
            got = ctx.degree_class(q)
            want = _reference_degree_data(ctx, FactoredRational(exponent_table(q)))
            assert _rendering(got) == _reference_rendering(ctx, want), (ctx, q)
            classes.append((got, want))
        for _ in range(200):
            (x, rx), (y, ry) = rng.choice(classes), rng.choice(classes)
            k = rng.randint(-4, 5)
            want = _reference_mul(ctx, rx, ry)
            assert _rendering(x * y) == _reference_rendering(ctx, want), (ctx, x, y)
            assert (x * y == ctx.identity()) == (_reference_rendering(ctx, want)[1] == "identity")
            power = _reference_degree_data(ctx, factor(1))
            for _ in range(abs(k)):
                power = _reference_mul(ctx, power, rx)
            assert _rendering(x**k) == _reference_rendering(ctx, power), (ctx, x, k)


def test_common_factor_cancellation():
    # the class of q1/q2 is unchanged by multiplying both by a common degree
    ctx = EndZ(2)
    for q1, q2, t in ((3, 5, 16), (2, 7, 81), (10, 3, 2**4 * 3**4)):
        lhs = ctx.degree_class(Fraction(q1 * t, q2 * t))
        assert lhs == ctx.degree_class(Fraction(q1, q2))


def test_supersingular_trivial():
    ctx = Supersingular(7)
    for q in (1, 2, 12, Fraction(5, 11)):
        assert ctx.degree_class(q).is_identity
        assert ctx.degree_class(q).order() == 1
    assert ctx.structure().describe() == "trivial"


def test_supersingular_degree_class_factors_nothing():
    from k0av.arith import _factor_int

    ctx, large = Supersingular(5), Supersingular(101)
    before = _factor_int.cache_info()
    for q in (1000000000100000000002379, Fraction(12, 1000000000100000000002379), FactoredRational(())):
        assert ctx.degree_class(q) == ctx.identity()
    assert large.degree_class(7**40 * 11) == large.identity()
    after = _factor_int.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_char_p_distances():
    ctx = CharPEndZ(5)
    cls = ctx.degree_class(12)
    assert cls.data == (0, (3,))
    assert cls.order() == 2
    assert ctx.degree_class(Fraction(3, 7)).data == (0, (3, 7))
    assert ctx.degree_class(9).is_identity
    for q in (10, 5, Fraction(1, 5), Fraction(3, 25), FactoredRational(exponent_table(Fraction(2, 125)))):
        with pytest.raises(KernelInputError, match="^use kernel input for p-part$"):
            ctx.degree_class(q)


def test_char_p_structure_and_duality():
    ctx = CharPEndZ(5)
    st = ctx.structure()
    assert st.to_json()["free_rank"] == 1
    assert "index 2" in st.describe()
    cls = ctx.degree_class(Fraction(12, 7))
    assert cls.inverse().data == (0, (3, 7))
    assert (cls * cls).is_identity


def test_duality_involution_and_inverse_random():
    rng = random.Random(9)
    contexts = [EndZ(1), EndZ(2), EndZ(5), CM(-20), CM(-23), Supersingular(3), CharPEndZ(7)]
    for ctx in contexts:
        for _ in range(100):
            num = rng.randint(1, 300)
            den = rng.randint(1, 300)
            if isinstance(ctx, CharPEndZ):
                while num % ctx.p == 0:
                    num = rng.randint(1, 300)
                while den % ctx.p == 0:
                    den = rng.randint(1, 300)
            cls = ctx.degree_class(Fraction(num, den))
            assert cls.inverse().inverse() == cls
            assert (cls * cls.inverse()).is_identity


def test_structure_descriptions_frozen():
    assert EndZ(2).structure().describe() == "Z/4 per prime"
    assert (
        CM(-20).structure().describe()
        == "Z/2 (class group mod squares) (+) Z/2 per inert prime"
    )
    assert Supersingular(7).structure().describe() == "trivial"
    assert (
        CharPEndZ(5).structure().describe()
        == "Z (+) Z/2 per prime != 5 [index 2 in Z (+) positive rationals mod squares]"
    )
    assert CM(-23).structure().describe() == "Z/2 per inert prime"


def test_structure_with_a_repeated_factor():
    # C/C^2 for disc -420 = -4*3*5*7 is (Z/2)^3: one factor counted three times.
    st = CM(-420).structure()
    assert st.describe() == "(Z/2)^3 (class group mod squares) (+) Z/2 per inert prime"
    assert st.to_json()["factors"] == [
        {"modulus": 2, "count": 3, "label": "class group mod squares"},
        {"modulus": 2, "count": None, "label": "per inert prime"},
    ]


# One context of each kind, as the keyword arguments of its constructor.
_KIND_FIELDS = {
    "end_z": {"g": 2},
    "cm": {"disc": -20},
    "supersingular": {"p": 5},
    "ordinary_cm": {"disc": -20, "p": 29},
    "char_p_end_z": {"p": 5},
}
_KIND_INTERFACE = ("_mul", "_pow", "_class_order", "_describe_class", "_class_json", "structure", "describe")


@pytest.mark.parametrize("case", sorted(_CONTEXTS))
def test_each_kind_defines_the_context_interface(case):
    # IsogenyContext defines none of the interface, so a kind that lacks a
    # method fails here rather than at its first call.
    kind = _CONTEXTS[case]
    own = kind.__mro__[: kind.__mro__.index(IsogenyContext)]
    names = _KIND_INTERFACE + (("_degree_data",) if kind._reads_primes else ())
    assert [n for n in names if not any(n in cls.__dict__ for cls in own)] == []
    # Fields are taken by name, and an extra positional argument is refused
    # rather than dropped: CM(-20, 5) is not CM(-20).
    fields = _KIND_FIELDS[case]
    assert tuple(fields) == kind._fields
    ctx = kind(**fields)
    assert ctx == kind(*fields.values()) and ctx.to_json() == {"case": case, **fields}
    with pytest.raises(TypeError):
        kind(*fields.values(), 5)


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        EndZ(2).degree_class(3) * EndZ(3).degree_class(3)


def test_is_norm_requires_cm_context():
    assert OrdinaryCM(-20, 3).is_norm(9)
    assert not OrdinaryCM(-20, 3).is_norm(3)
    with pytest.raises(AttributeError):
        EndZ(2).is_norm(3)


def test_ordinary_cm_p_is_split_prime():
    ctx = OrdinaryCM(-20, 3)
    cls = ctx.degree_class(3)
    assert cls.to_json() == {"case": "ordinary_cm", "coset_rep": [2, 2, 3], "inert_odd": []}
    assert cls.describe() == "coset (2, 2, 3)"
    assert ctx.degree_class(9).is_identity


def test_context_json_round_trip():
    for ctx in (EndZ(2), CM(-20), Supersingular(7), OrdinaryCM(-20, 3), CharPEndZ(5)):
        assert make_context(ctx.to_json()) == ctx
        assert list(ctx.to_json()) == ["case", *ctx._fields]
        cls = ctx.degree_class(2)
        assert cls.to_json()["case"] == ctx.case


def test_degree_class_accepts_factored_rational():
    ctx = EndZ(2)
    q = FactoredRational(exponent_table(Fraction(8, 3)))
    assert ctx.degree_class(q) == ctx.degree_class(Fraction(8, 3))


def test_degree_class_rejects_nonpositive():
    for ctx in (EndZ(2), CM(-20), Supersingular(7), OrdinaryCM(-20, 3), CharPEndZ(5)):
        for q in (0, -3, Fraction(-1, 2)):
            with pytest.raises(KernelInputError, match="positive"):
                ctx.degree_class(q)


# The refusals of a bad degree: one text each from `degree_class` in every
# kind, `exponent_table` and `class_in_image`.  A long value is named by
# `int_excerpt`, whatever the interpreter's int-conversion limit.
_DEGREE_REFUSALS = (
    (0, "degree must be a positive rational, got 0"),
    (-3, "degree must be a positive rational, got -3"),
    (Fraction(-1, 2), "degree must be a positive rational, got -1/2"),
    (1.5, "degree must be a positive rational, got float"),
    ("3", "degree must be a positive rational, got str"),
    (None, "degree must be a positive rational, got NoneType"),
    (False, "degree must be a positive rational, got bool"),
    (True, "degree must be a positive rational, got bool"),
    (-(10**5000), "degree must be a positive rational, got -1000000000... (5001 digits)"),
    (Fraction(-(10**5000), 3), "degree must be a positive rational, got -1000000000... (5001 digits)/3"),
)


@pytest.mark.parametrize("case", sorted(_CONTEXTS))
def test_degree_class_refusals_pinned(case):
    ctx = _CONTEXTS[case](**_KIND_FIELDS[case])
    readers = (ctx.degree_class, exponent_table, lambda q: class_in_image(5, 0, q))
    for q, message in _DEGREE_REFUSALS:
        for read in readers:
            with pytest.raises(KernelInputError) as info:
                read(q)
            assert str(info.value) == message, (case, q, read)


@given(st.integers(1, 10**12), st.integers(1, 10**12))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_degree_class_reads_a_factored_rational_as_its_fraction(a, b):
    q = Fraction(a, b)
    factored = FactoredRational(exponent_table(q))
    for case in sorted(_CONTEXTS):
        ctx = _CONTEXTS[case](**_KIND_FIELDS[case])
        try:
            want = ctx.degree_class(q)
        except KernelInputError as exc:  # char_p_end_z, for a degree with a p-part
            with pytest.raises(KernelInputError, match=f"^{exc}$"):
                ctx.degree_class(factored)
        else:
            assert ctx.degree_class(factored) == want, (case, q)


def test_principal_form_checks_the_discriminant_once():
    from k0av.arith import _factor_int
    from k0av.quadforms import class_group

    ctx, group = CM(-20), class_group(-20)
    before = _factor_int.cache_info()
    assert ctx.principal.triple() == group.identity.triple() == (1, 0, 5)
    after = _factor_int.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_cm_identity_is_the_first_coset_rep():
    for d in range(-400, -2):
        if is_fundamental_discriminant(d):
            ctx = CM(d)
            first = square_classes(d).coset_reps[0]
            assert ctx.principal == first
            assert ctx.identity().to_json() == {"case": "cm", "coset_rep": list(first.triple()), "inert_odd": []}
            assert ctx.identity().describe() == "identity"

