"""The brute-force oracles themselves: frozen hand-checkable values and
internal consistency.  Everything else in the suite leans on these."""

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from k0av import oracle

# Classical class numbers; the enumeration must reproduce them exactly.
CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -52: 2,
    -56: 4, -71: 7, -84: 4, -120: 4, -163: 1, -231: 12, -420: 8, -479: 25,
}


def test_reduced_form_lists_frozen():
    assert [f.triple() for f in oracle.enumerate_reduced_forms(-4)] == [(1, 0, 1)]
    assert [f.triple() for f in oracle.enumerate_reduced_forms(-3)] == [(1, 1, 1)]
    assert [f.triple() for f in oracle.enumerate_reduced_forms(-20)] == [(1, 0, 5), (2, 2, 3)]
    assert [f.triple() for f in oracle.enumerate_reduced_forms(-23)] == [
        (1, 1, 6),
        (2, -1, 3),
        (2, 1, 3),
    ]


def test_class_numbers_frozen():
    for d, h in CLASS_NUMBERS.items():
        assert len(oracle.enumerate_reduced_forms(d)) == h, d


def test_enumeration_output_is_reduced_and_primitive():
    from math import gcd

    for d in (-4, -23, -84, -479):
        for f in oracle.enumerate_reduced_forms(d):
            a, b, c = f.triple()
            assert abs(b) <= a <= c
            if abs(b) == a or a == c:
                assert b >= 0
            assert gcd(gcd(a, abs(b)), c) == 1
            assert b * b - 4 * a * c == d


def test_enumeration_rejects_bad_discriminants():
    with pytest.raises(ValueError):
        oracle.enumerate_reduced_forms(-5)
    with pytest.raises(ValueError):
        oracle.enumerate_reduced_forms(4)


def test_norm_witness_frozen():
    assert oracle.norm_witness_search(29, -20, 10) == (3, 2, 1)
    assert oracle.norm_witness_search(1, -20, 5) == (1, 0, 1)
    assert oracle.norm_witness_search(1, -23, 5) == (1, 0, 1)
    assert oracle.norm_witness_search(3, -20, 50) is None
    assert oracle.norm_witness_search(2, -7, 5) == (0, 1, 1)


def test_norm_witness_validity():
    for q, d in ((29, -20), (5, -20), (21, -20), (2, -7), (Fraction(9, 4), -4)):
        w = oracle.norm_witness_search(q, d)
        assert w is not None
        assert oracle.check_witness(q, d, w)


def test_norm_witness_rejects_nonpositive():
    with pytest.raises(ValueError):
        oracle.norm_witness_search(0, -20)


def test_exhaustive_subgroups_counts_frozen():
    assert len(oracle.exhaustive_subgroups(1)) == 1
    assert len(oracle.exhaustive_subgroups(2)) == 5
    assert len(oracle.exhaustive_subgroups(4)) == 15
    assert len(oracle.exhaustive_subgroups(6)) == 30
    assert len(oracle.exhaustive_subgroups(12)) == 90
    assert len(oracle.exhaustive_subgroups(30)) == 240


def test_exhaustive_subgroups_order_profile():
    hist = Counter(s.order for s in oracle.exhaustive_subgroups(4))
    assert hist == {1: 1, 2: 3, 4: 7, 8: 3, 16: 1}
    for ell in (2, 3, 5, 7, 11, 13):
        count = sum(1 for s in oracle.exhaustive_subgroups(ell) if s.order == ell)
        assert count == ell + 1


def test_exhaustive_subgroups_distinct():
    subs = oracle.exhaustive_subgroups(12)
    assert len(set(subs)) == len(subs)


def test_lattice_degree_frozen():
    assert oracle.lattice_degree_oracle([[2]], 1) == 4
    assert oracle.lattice_degree_oracle([[1, 0], [0, 1]], 3) == 1
    assert oracle.lattice_degree_oracle([[1, 1], [0, 3]], 1) == 9
    assert oracle.lattice_degree_oracle([[2, 1], [0, 2]], 2) == 256


def test_lattice_degree_singular():
    with pytest.raises(ValueError):
        oracle.lattice_degree_oracle([[1, 1], [2, 2]], 1)


def test_ideal_square_frozen():
    assert oracle.ideal_square_class(-20, (2, 2, 3)) == (1, 0, 5)
    assert oracle.ideal_square_class(-20, (1, 0, 5)) == (1, 0, 5)
    # order-3 group: squaring is inversion
    assert oracle.ideal_square_class(-23, (2, 1, 3)) == (2, -1, 3)
    assert oracle.ideal_square_class(-23, (2, -1, 3)) == (2, 1, 3)


def test_ideal_square_wrong_disc():
    with pytest.raises(ValueError):
        oracle.ideal_square_class(-20, (2, 2, 5))


def test_square_class_triples_small():
    assert oracle.square_class_triples(-20) == {(1, 0, 5)}
    assert oracle.square_class_triples(-23) == {(1, 1, 6), (2, -1, 3), (2, 1, 3)}


def test_prime_exponents_frozen():
    assert oracle.prime_exponents(12) == {2: 2, 3: 1}
    assert oracle.prime_exponents(1) == {}
    assert oracle.prime_exponents(97) == {97: 1}
    with pytest.raises(ValueError):
        oracle.prime_exponents(0)


def test_oracle_module_shares_no_algorithm_code():
    """The oracle may use main-path containers but none of its algorithms."""
    src = Path(oracle.__file__).read_text(encoding="utf-8")
    tree = ast.parse(src)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imported.add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.name)
    package_imports = {name for name in imported if "quadforms" in name or "arith" in name
                       or "_formcore" in name or "_backend" in name}
    assert package_imports == {"k0av.arith.TorsionSubgroup", "k0av.quadforms.QuadForm"} or \
        package_imports == {"arith.TorsionSubgroup", "quadforms.QuadForm"}


def test_check_certificate_frozen():
    z2 = {"den": 1, "basis": [[1, 0], [0, 1]]}
    half = {"den": 2, "basis": [[1, 0], [0, 2]]}  # the points (0, 0), (1/2, 0)
    other = {"den": 2, "basis": [[2, 0], [0, 1]]}  # the points (0, 0), (0, 1/2)
    both = {"den": 2, "basis": [[1, 0], [0, 1]]}
    # [half] - [other] = -([Z^2] + [both] - [half] - [third]) + ([Z^2] + [both] - [other] - [third])
    third = {"den": 2, "basis": [[1, 1], [0, 2]]}  # the points (0, 0), (1/2, 1/2)
    steps = [
        {"sign": -1, "base": z2, "sub1": half, "sub2": third, "sum": both, "orders": [2, 2]},
        {"sign": 1, "base": z2, "sub1": other, "sub2": third, "sum": both, "orders": [2, 2]},
    ]
    cert = {"format": "k0-derivation/1", "level": 2, "degree": 2, "c1": half, "c2": other, "steps": steps}
    assert oracle.check_certificate(cert) == []
    assert oracle.check_certificate(dict(cert, level=1)) == [
        "c1 is not killed by the level 1", "c2 is not killed by the level 1"
    ]
    assert oracle.check_certificate(dict(cert, degree=4)) == ["stated degree 4 is not the size 2 of c1"]
    assert oracle.check_certificate(dict(cert, steps=steps[:1])) == ["the steps do not telescope to [c1] - [c2]"]
    # 2Z x Z has the same points mod Z^2 as Z^2, but is not Z^2.
    sub_z2 = {"den": 1, "basis": [[2, 0], [0, 1]]}
    assert oracle.check_certificate(dict(cert, c1=sub_z2, c2=sub_z2, steps=[])) == [
        "c1 does not contain Z^2", "stated degree 2 is not the size 1 of c1"
    ]
    assert oracle.check_certificate(dict(cert, c1={"den": 2, "basis": [[1, 0], [2, 0]]})) == [
        "c1: the rows do not span a full-rank lattice"
    ]
    assert oracle.check_certificate(dict(cert, c1={"den": 2, "basis": [[1.0, 0], [0, 2]]}))[0].startswith(
        "malformed certificate"
    )
