"""Binary quadratic forms: reduction, composition, class groups, square
classes, and prime classes, checked against the naive oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0av import _formcore, oracle
from k0av.errors import DiscriminantError, KernelInputError
from k0av.quadforms import (
    DISC_CACHE_SIZE,
    MAX_CLASS_GROUP_DISC,
    ClassGroup,
    QuadForm,
    SquareClasses,
    class_group,
    compose,
    is_fundamental_discriminant,
    prime_class,
    principal_form,
    reduce_form,
    square_classes,
)

from conftest import fundamental_discs

FUNDAMENTAL_SAMPLE = (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31, -35,
                      -39, -40, -43, -47, -52, -56, -71, -84, -120, -163)


def test_reduce_frozen():
    assert reduce_form(QuadForm(1, 0, 1)).triple() == (1, 0, 1)
    assert reduce_form(QuadForm(3, 4, 2)).triple() == (1, 0, 2)
    assert reduce_form(QuadForm(2, 2, 3)).triple() == (2, 2, 3)


def test_reduce_idempotent_and_boundary():
    for d in fundamental_discs(400):
        for f in class_group(d).elements:
            assert reduce_form(f) == f
            a, b, c = f.triple()
            assert abs(b) <= a <= c
            if abs(b) == a or a == c:
                assert b >= 0
            # the shifts b -> b + 2ak are the same class, unreduced
            for k in (1, 2, 5):
                assert _formcore.reduce_triple(a, b + 2 * a * k, a * k * k + b * k + c) == (a, b, c)


def test_form_validation():
    with pytest.raises(DiscriminantError):
        QuadForm(1, 2, 1)  # discriminant 0
    with pytest.raises(DiscriminantError):
        QuadForm(-1, 0, -1)  # not positive definite


def test_compose_frozen():
    f = QuadForm(2, 2, 3)
    assert compose(f, f).triple() == (1, 0, 5)
    for d in (-20, -23, -47):
        e = principal_form(d)
        for g in class_group(d).elements:
            assert compose(e, g) == g
            assert compose(g, g.inverse()) == e


def test_compose_disc_mismatch():
    with pytest.raises(DiscriminantError):
        compose(QuadForm(1, 0, 1), QuadForm(1, 0, 2))


def test_class_group_frozen():
    assert [f.triple() for f in class_group(-4).elements] == [(1, 0, 1)]
    assert [f.triple() for f in class_group(-20).elements] == [(1, 0, 5), (2, 2, 3)]
    assert class_group(-23).h == 3
    assert class_group(-163).h == 1
    assert class_group(-47).h == 5


def test_class_group_matches_oracle_to_2000():
    for d in fundamental_discs(2000):
        main = [f.triple() for f in class_group(d).elements]
        ora = [f.triple() for f in oracle.enumerate_reduced_forms(d)]
        assert main == ora, d


def test_class_group_axioms_sampled():
    for d in FUNDAMENTAL_SAMPLE:
        cg = class_group(d)
        elems = cg.elements
        e = cg.identity
        for f in elems:
            assert compose(f, e) == f
            assert compose(f, f.inverse()) == e
            for g in elems:
                fg = compose(f, g)
                assert fg in elems
                assert fg == compose(g, f)
        # associativity on a small slice
        for f in elems[:4]:
            for g in elems[:4]:
                for h in elems[:4]:
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_class_group_rejects_bad_discs():
    with pytest.raises(DiscriminantError, match="non-maximal order unsupported"):
        class_group(-12)
    with pytest.raises(DiscriminantError, match="non-maximal order unsupported"):
        class_group(-100)
    with pytest.raises(DiscriminantError, match="not a negative quadratic discriminant"):
        class_group(-21)
    with pytest.raises(DiscriminantError):
        class_group(5)
    # past the enumeration limit, refused before factoring: d is minus a
    # product of two 20-digit primes, which factoring would refuse only
    # after its whole rho budget
    limit = f"class-group limit of {MAX_CLASS_GROUP_DISC}"
    for d in (-MAX_CLASS_GROUP_DISC - 3, -100000000003,
              -10000000000000000051 * 10000000000000000097):
        with pytest.raises(DiscriminantError, match=limit):
            class_group(d)
        with pytest.raises(DiscriminantError, match=limit):
            square_classes(d)
    assert class_group(-MAX_CLASS_GROUP_DISC + 5).disc == -MAX_CLASS_GROUP_DISC + 5


def test_fundamental_discriminant_classifier():
    for d in (-3, -4, -7, -8, -11, -15, -19, -20, -24, -163):
        assert is_fundamental_discriminant(d)
    for d in (-12, -16, -27, -28, -32, -44, -45, -48, -99, -100):
        assert not is_fundamental_discriminant(d)


def test_square_classes_frozen():
    assert square_classes(-4).index == 1
    assert square_classes(-23).index == 1
    assert square_classes(-20).index == 2
    assert square_classes(-84).index == 4
    assert square_classes(-420).index == 8


def test_square_classes_structure():
    for d in FUNDAMENTAL_SAMPLE:
        sq = square_classes(d)
        h = class_group(d).h
        # index is a power of two dividing h
        assert sq.index & (sq.index - 1) == 0
        assert h % sq.index == 0
        assert len(sq.squares) * sq.index == h
        # squares form a subgroup
        for f in sq.squares:
            assert f.inverse() in sq.squares or reduce_form(f.inverse()) in sq.squares
            for g in sq.squares:
                assert compose(f, g) in sq.squares
        # coset reps are canonical: each is the (a, b)-least of its coset
        for rep in sq.coset_reps:
            coset = sorted(compose(rep, s) for s in sq.squares)
            assert rep == coset[0]


def test_square_classes_match_ideal_oracle():
    for d in FUNDAMENTAL_SAMPLE:
        main = {f.triple() for f in square_classes(d).squares}
        assert main == oracle.square_class_triples(d), d


# every fundamental |d| <= 2000, plus the two CM discriminants the benchmark
# queries most: h = 38 with index 2, and h = 36 with index 4
REP_DISCS = fundamental_discs(2000) + [-1671, -5291]


def test_square_rep_is_least_form_of_coset():
    assert (class_group(-1671).h, square_classes(-1671).index) == (38, 2)
    assert (class_group(-5291).h, square_classes(-5291).index) == (36, 4)
    for d in REP_DISCS:
        sq = square_classes(d)
        assert {f.triple() for f in sq.squares} == oracle.square_class_triples(d), d
        for f in class_group(d).elements:
            want = min(compose(f, s) for s in sq.squares)
            a, b, c = f.triple()
            b2 = b + 6 * a  # the same class, unreduced
            shifted = QuadForm(a, b2, (b2 * b2 - d) // (4 * a))
            assert not shifted.is_reduced
            assert sq.rep(f) == want and sq.rep(shifted) == want, (d, f)


def test_masks_are_an_isomorphism_onto_xor():
    for d in fundamental_discs(1000):
        sq = square_classes(d)
        elements = class_group(d).elements
        assert set(sq.mask_of.values()) == set(range(sq.index)), d
        assert len(sq.mask_of) == len(elements), d
        assert sorted(sq.reps) == list(sq.coset_reps), d
        assert sq.mask_of[principal_form(d)] == 0 and sq.reps[0] == principal_form(d), d
        masks = [sq.mask_of[sq.rep(f)] for f in elements]
        assert masks == [sq.mask_of[f] for f in elements], d
        for f, mf in zip(elements, masks):
            for g, mg in zip(elements, masks):
                assert sq.reps[mf ^ mg] == sq.rep(compose(f, g)), (d, f, g)


def test_square_rep_rejects_other_discriminant():
    with pytest.raises(DiscriminantError):
        square_classes(-20).rep(QuadForm(2, 1, 3))  # disc -23


def test_square_classes_hashable_after_rep():
    sq = square_classes(-5291)
    copy = SquareClasses(sq.disc, sq.squares, sq.coset_reps)
    before = hash(sq)
    for f in class_group(-5291).elements:
        sq.rep(f)
    assert hash(sq) == before == hash(copy)
    assert sq == sq and sq == copy and copy == sq
    assert {copy: 1}[sq] == 1


def test_prime_class_frozen():
    assert prime_class(3, -4).is_inert
    pc = prime_class(5, -4)
    assert not pc.is_inert and pc.kind == "split" and pc.form.triple() == (1, 0, 1)
    pc = prime_class(3, -20)
    assert pc.kind == "split" and pc.form.triple() == (2, 2, 3)
    pc = prime_class(2, -20)
    assert pc.kind == "ramified" and pc.form.triple() == (2, 2, 3)
    pc = prime_class(5, -20)
    assert pc.kind == "ramified" and pc.form.triple() == (1, 0, 5)
    pc = prime_class(7, -20)
    assert pc.kind == "split" and pc.form.triple() == (2, 2, 3)
    assert prime_class(11, -20).is_inert


def test_prime_class_conjugate_pairs():
    # split ell: the class times its inverse is principal, matching
    # the prime ideal times its conjugate being (ell)
    for d in (-4, -20, -23, -47):
        e = principal_form(d)
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            pc = prime_class(ell, d)
            if pc.is_inert:
                continue
            assert compose(pc.form, pc.form.inverse()) == e
            # the form really represents ell (up to reduction it has a = ell
            # before reduction); check discriminant bookkeeping instead
            assert pc.form.disc == d


def test_prime_class_well_defined_mod_squares():
    # (ell, b, -) and (ell, -b, -) are inverse classes, hence equal mod squares
    for d in (-20, -23, -47, -84):
        sq = square_classes(d)
        for ell in (3, 7, 11, 13, 29):
            pc = prime_class(ell, d)
            if pc.is_inert:
                continue
            assert sq.rep(pc.form) == sq.rep(pc.form.inverse())


def test_prime_class_rejects_composite():
    with pytest.raises(KernelInputError, match="6 is not prime"):
        prime_class(6, -20)


@st.composite
def forms(draw):
    d = draw(st.sampled_from(FUNDAMENTAL_SAMPLE))
    f = draw(st.sampled_from(class_group(d).elements))
    # unreduce: shift b by 2ak, keeping the discriminant
    k = draw(st.integers(min_value=-6, max_value=6))
    a, b, c = f.triple()
    b2 = b + 2 * a * k
    return QuadForm(a, b2, (b2 * b2 - d) // (4 * a)), f


@given(forms())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_reduce_recovers_class_representative(pair):
    messy, reduced = pair
    assert reduce_form(messy) == reduced


def test_class_group_is_cached():
    assert class_group(-47) is class_group(-47)
    assert isinstance(class_group(-47), ClassGroup)


def test_class_group_caches_are_bounded_and_cache_no_raise():
    for fn in (class_group, square_classes):
        assert fn.cache_info().maxsize == DISC_CACHE_SIZE
    for d in fundamental_discs(400):
        square_classes(d)
    sizes = [fn.cache_info().currsize for fn in (class_group, square_classes)]
    assert sizes == [DISC_CACHE_SIZE, DISC_CACHE_SIZE]
    for fn in (class_group, square_classes):
        with pytest.raises(DiscriminantError, match="non-maximal"):
            fn(-12)
        with pytest.raises(DiscriminantError, match="limit of"):
            fn(-MAX_CLASS_GROUP_DISC - 3)
    assert [fn.cache_info().currsize for fn in (class_group, square_classes)] == sizes
