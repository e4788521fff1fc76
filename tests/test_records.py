"""Value-type semantics: every record type keeps what it had as a frozen
dataclass (equality and hashing over the field tuple, fields left out of
comparison, refused assignment, the repr), and importing the CLI loads
neither `dataclasses` nor the oracle."""

import ast
import copy
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import k0av
from k0av._record import Record
from k0av.arith import FactoredRational, FracLattice, TorsionSubgroup, det, factor, matrix_isogeny_degree
from k0av.contexts import (
    CM,
    CharPEndZ,
    DegreeClass,
    EndZ,
    GroupStructure,
    OrdinaryCM,
    Supersingular,
)
from k0av.errors import ContextError, DiscriminantError, K0Error, KernelInputError
from k0av.expr import ClassAtom, Dual, KernelSpec, Sum, print_expression
from k0av.k0 import Derivation, DerivationCheck, K0Element, QuotientRelation, derive_same_degree
from k0av.kernels import class_in_image, kernel_class, kernel_of_matrix_endo
from k0av.quadforms import (
    ClassGroup,
    PrimeClass,
    QuadForm,
    SquareClasses,
    class_group,
    prime_class,
    square_classes,
)

_B = ((1, 0), (0, 6))
_LINE1 = TorsionSubgroup(2, ((1, 0), (0, 2)))
_LINE2 = TorsionSubgroup(2, ((2, 0), (0, 1)))


def _relation(stated=None):
    sub1, sub2 = FracLattice.from_subgroup(_LINE1), FracLattice.from_subgroup(_LINE2)
    return QuotientRelation(FracLattice.unit(), sub1, sub2, sub1 + sub2, stated)


def _derivation(stated=None):
    d = derive_same_degree(2, _LINE1, _LINE2)
    return Derivation(d.level, d.c1, d.c2, d.steps, stated)


def _square_classes():
    sq = square_classes(-20)
    return SquareClasses(sq.disc, sq.squares, sq.coset_reps)


# (factory, compared fields, fields outside comparison): one row per Record
# type that used to be a frozen dataclass.  Each factory builds a new
# instance.  FracLattice, now a tuple, has its own tests below.
RECORDS = [
    (lambda: factor(360), ("exps",), ()),
    (lambda: TorsionSubgroup(6, _B), ("level", "basis"), ()),
    (lambda: QuadForm(2, 1, 3), ("a", "b", "c"), ()),
    (lambda: ClassGroup(-20, class_group(-20).elements), ("disc", "elements"), ()),
    (_square_classes, ("disc", "squares", "coset_reps"), ()),
    (lambda: PrimeClass("split", QuadForm(2, 2, 3)), ("kind", "form"), ()),
    (lambda: GroupStructure(1, ((2, 1, "x"),), "note"), ("free_rank", "factors", "note"), ()),
    (lambda: CM(-20).degree_class(3), ("ctx", "data"), ()),
    (lambda: EndZ(2), ("g",), ()),
    (lambda: CM(-20), ("disc",), ()),
    (lambda: OrdinaryCM(-20, 29), ("disc", "p"), ()),
    (lambda: Supersingular(5), ("p",), ()),
    (lambda: CharPEndZ(5), ("p",), ()),
    (lambda: K0Element(3, EndZ(1).degree_class(2)), ("n", "deg"), ()),
    (lambda: _relation((2, 2)), ("base", "sub1", "sub2", "joint"), ("stated_orders",)),
    (lambda: _derivation(2), ("level", "c1", "c2", "steps"), ("stated_degree",)),
    (lambda: DerivationCheck(("step 0: bad",)), ("failures",), ()),
    (lambda: KernelSpec(1, 0, 0, 12), ("zp", "mup", "alphap", "coprime"), ()),
    (lambda: ClassAtom(2, Fraction(3, 4)), ("n", "spec"), ()),
    (lambda: Dual(Sum(((1, ClassAtom(1, Fraction(5))),))), ("inner",), ()),
    (lambda: Sum(((1, ClassAtom(1, Fraction(5))), (-2, ClassAtom(1, Fraction(7))))), ("terms",), ()),
]
IDS = [type(make()).__name__ for make, _, _ in RECORDS]


def test_every_former_dataclass_is_listed():
    assert len(set(IDS)) == len(RECORDS) == 21


@pytest.mark.parametrize("make,fields,extra", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(make, fields, extra):
    x, y = make(), make()
    assert x is not y
    assert x == y and not (x != y)
    key = tuple(getattr(x, f) for f in fields)
    assert hash(x) == hash(y) == hash(key)
    assert x != key and len({x, y}) == 1
    assert {x: 1}[y] == 1


@pytest.mark.parametrize("make,fields,extra", RECORDS, ids=IDS)
def test_assignment_is_refused(make, fields, extra):
    x = make()
    for name in fields + extra + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    for name in fields + extra:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in fields) == tuple(getattr(make(), f) for f in fields)


@pytest.mark.parametrize("make,fields,extra", RECORDS, ids=IDS)
def test_repr_names_every_field(make, fields, extra):
    x = make()
    body = ", ".join(f"{f}={getattr(x, f)!r}" for f in fields + extra)
    assert repr(x) == f"{type(x).__qualname__}({body})"


@pytest.mark.parametrize("make,fields,extra", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(make, fields, extra):
    x = make()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and type(y) is type(x)
        assert all(getattr(y, f) == getattr(x, f) for f in extra)


def test_repr_literals():
    assert repr(QuadForm(1, 1, 6)) == "QuadForm(a=1, b=1, c=6)"
    assert repr(CM(-4)) == "CM(disc=-4)"
    assert repr(KernelSpec()) == "KernelSpec(zp=0, mup=0, alphap=0, coprime=1)"
    assert repr(factor(12)) == "FactoredRational(exps=((2, 2), (3, 1)))"


def test_uncompared_fields_are_ignored():
    assert _relation((2, 2)) == _relation(None) == _relation((7, 9))
    assert hash(_relation((2, 2))) == hash(_relation(None))
    assert _relation((7, 9)).stated_orders == (7, 9)
    assert _derivation(2) == _derivation(None) == _derivation(99)
    assert hash(_derivation(2)) == hash(_derivation(None))
    assert _derivation(99).stated_degree == 99


def test_equal_numbers_of_different_types_are_unequal():
    # A lattice and a TorsionSubgroup: test_lattice_is_unequal_to_other_shapes.
    cm = CM(-4)
    for other in (OrdinaryCM(-4, 5), EndZ(1), Supersingular(5), CharPEndZ(5)):
        assert cm != other and other != cm
    assert Supersingular(5) != CharPEndZ(5)
    assert Supersingular(5).identity() != EndZ(1).identity()  # both have data ()
    assert K0Element(1, EndZ(1).identity()) != K0Element(1, EndZ(2).identity())
    assert KernelSpec(0, 0, 0, 1) != (0, 0, 0, 1)
    assert ClassAtom(1, Fraction(2)) != Dual(Sum(()))


# A lattice is no Record: it is the tuple (den, a, b, d) of its canonical
# form, and equals and hashes as that tuple.
_LAT = (6, 1, 0, 6)


def test_lattice_equals_and_hashes_as_its_ints():
    x, y = FracLattice(_LAT), FracLattice.from_subgroup(TorsionSubgroup(6, _B))
    assert x is not y and type(x) is type(y) is FracLattice
    assert x == y == _LAT and not (x != _LAT) and _LAT == x
    assert hash(x) == hash(y) == hash(_LAT)
    assert len({x, y, _LAT}) == 1 and {x: 1}[_LAT] == 1
    assert FracLattice.make(6, _B) == _LAT and FracLattice.unit() == (1, 1, 0, 1)


def test_lattice_is_unequal_to_other_shapes():
    lat, sub = FracLattice(_LAT), TorsionSubgroup(6, _B)
    assert lat != sub and sub != lat and len({lat, sub}) == 2
    assert lat != (6, _B) and lat != (6, ((1, 0), (0, 6))) and lat != [6, 1, 0, 6]
    assert lat != FracLattice((6, 1, 0, 3))


def test_lattice_assignment_is_refused():
    lat = FracLattice(_LAT)
    for name in ("den", "a", "b", "d", "basis", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(lat, name, 0)
    with pytest.raises(TypeError):
        lat[0] = 2
    assert lat == _LAT


def test_lattice_repr_names_its_ints():
    assert repr(FracLattice.unit()) == "FracLattice(den=1, a=1, b=0, d=1)"
    assert repr(FracLattice(_LAT)) == "FracLattice(den=6, a=1, b=0, d=6)"
    assert repr(FracLattice((1, 1, 0))) == "FracLattice((1, 1, 0))"


def test_lattice_copy_and_pickle_round_trip():
    lat = FracLattice(_LAT)
    for y in (copy.copy(lat), copy.deepcopy(lat), pickle.loads(pickle.dumps(lat))):
        assert y == lat and type(y) is FracLattice and y.is_canonical


def test_quad_form_order_is_triple_order():
    forms = [QuadForm(a, b, c) for a, b, c in [(2, 1, 3), (1, 1, 6), (2, -1, 3), (1, 0, 5), (2, 2, 3), (3, 1, 2)]]
    assert [f.triple() for f in sorted(forms)] == sorted(f.triple() for f in forms)
    for f in forms:
        for g in forms:
            s, t = f.triple(), g.triple()
            assert (f < g, f <= g, f > g, f >= g) == (s < t, s <= t, s > t, s >= t)
    assert min(forms) == QuadForm(1, 0, 5)
    with pytest.raises(TypeError):
        QuadForm(1, 0, 5) < (1, 0, 5)


@pytest.mark.parametrize(
    "build,error",
    [
        # These two raised a bare ValueError before every library error became
        # a K0Error; their ids keep the names the suite has always reported.
        pytest.param(lambda: FactoredRational(((3, 1), (2, 1))), KernelInputError, id="<lambda>-ValueError0"),
        pytest.param(lambda: FactoredRational(((2, 0),)), KernelInputError, id="<lambda>-ValueError1"),
        (lambda: TorsionSubgroup(0, ((1, 0), (0, 1))), KernelInputError),
        (lambda: TorsionSubgroup(6, ((1, 6), (0, 6))), KernelInputError),
        (lambda: TorsionSubgroup(6, ((4, 0), (0, 6))), KernelInputError),
        (lambda: QuadForm(0, 1, 1), DiscriminantError),
        (lambda: QuadForm(1, 3, 1), DiscriminantError),
        (lambda: EndZ(0), ContextError),
        (lambda: CM(-13), DiscriminantError),
        (lambda: CM(-12), DiscriminantError),
        (lambda: OrdinaryCM(-20, 4), ContextError),
        (lambda: OrdinaryCM(-20, 13), ContextError),
        (lambda: Supersingular(4), ContextError),
        (lambda: CharPEndZ(9), ContextError),
        (lambda: KernelSpec(-1), KernelInputError),
        (lambda: KernelSpec(coprime=0), KernelInputError),
        (lambda: KernelSpec(0, 0, -1, 12), KernelInputError),
        (lambda: QuadForm(1, 2), TypeError),
        (lambda: FracLattice((1, 1, 0, 6), 3), TypeError),
        (lambda: EndZ(g=1, p=2), TypeError),
        (lambda: KernelSpec(zq=1), TypeError),
    ],
)
def test_constructors_raise_the_same_errors(build, error):
    with pytest.raises(error):
        build()


_M = [[2, 1], [0, 3]]  # nonsingular
_DIGITS = sys.get_int_max_str_digits()
_HAS_DIGIT_LIMIT = pytest.mark.skipif(not _DIGITS, reason="the interpreter sets no int-conversion limit")
_HUGE = 10**5000  # past the default digit limit of 4,300


def _too_long(what):
    return f"{what} has more digits than the limit of {_DIGITS} (sys.get_int_max_str_digits())"


# Every library error derives from K0Error (errors.py), including these
# refusals of malformed arguments.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: prime_class(4, -20), "4 is not prime"),
        (lambda: det([]), "empty matrix"),
        (lambda: det([[1, 2], [3]]), "ragged matrix"),
        (lambda: det([[1, 2]]), "determinant of a non-square matrix"),
        (lambda: FactoredRational(((3, 1), (2, 1))), "exponent table must be sorted with nonzero exponents"),
        (lambda: matrix_isogeny_degree([[2]], 0), "dimension must be positive"),
        (lambda: kernel_class(CM(-20), KernelSpec()), "kernel input requires a characteristic-p context"),
        (lambda: kernel_class(EndZ(1), KernelSpec()), "kernel input requires a characteristic-p context"),
        (lambda: kernel_of_matrix_endo(_M, CM(-20)), "kernel input requires a characteristic-p context"),
        (lambda: kernel_of_matrix_endo(_M, EndZ(1)), "kernel input requires a characteristic-p context"),
        (lambda: EndZ(1).degree_class(1.5), "degree must be a positive rational, got float"),
        (lambda: class_in_image(5, 0, 1.5), "can only factor an int or a Fraction, got float"),
        (lambda: factor(2.0), "can only factor an int, got float"),
        (lambda: KernelSpec(zp=1.5), "kernel fields must be integers"),
        (lambda: KernelSpec(coprime=12.0), "kernel fields must be integers"),
        (lambda: KernelSpec(coprime=True), "kernel fields must be integers"),
        (lambda: KernelSpec(mup="1"), "kernel fields must be integers"),
        (lambda: TorsionSubgroup(6.0, _B), "level and basis entries must be integers"),
        (lambda: TorsionSubgroup(6, ((1.0, 0), (0, 6))), "level and basis entries must be integers"),
        (lambda: TorsionSubgroup("6", _B), "level and basis entries must be integers"),
        (lambda: TorsionSubgroup(True, ((1, 0), (0, 1))), "level and basis entries must be integers"),
        (lambda: TorsionSubgroup(6, 5), "basis must be two rows of two entries"),
        (lambda: TorsionSubgroup(6, ((1, 0),)), "basis must be two rows of two entries"),
        (lambda: TorsionSubgroup(6, ((1, 0), (0, 6), (0, 1))), "basis must be two rows of two entries"),
        (lambda: FracLattice.make(2.5, _B), "lattice denominator must be an integer"),
        (lambda: FracLattice.make(True, _B), "lattice denominator must be an integer"),
        (lambda: FracLattice.make("2", _B), "lattice denominator must be an integer"),
        (lambda: matrix_isogeny_degree([[2]], 1.5), "dimension must be an integer"),
        (lambda: matrix_isogeny_degree([[2]], True), "dimension must be an integer"),
        (lambda: matrix_isogeny_degree([[2]], "1"), "dimension must be an integer"),
        pytest.param(
            lambda: print_expression(ClassAtom(_HUGE, Fraction(3))), _too_long("multiplicity"), marks=_HAS_DIGIT_LIMIT
        ),
        pytest.param(
            lambda: print_expression(ClassAtom(1, Fraction(_HUGE, 3))), _too_long("degree"), marks=_HAS_DIGIT_LIMIT
        ),
        pytest.param(
            lambda: print_expression(Sum(((_HUGE, ClassAtom(1, Fraction(3))),))),
            _too_long("coefficient"),
            marks=_HAS_DIGIT_LIMIT,
        ),
        pytest.param(lambda: KernelSpec(zp=_HUGE).literal(), _too_long("kernel field zp"), marks=_HAS_DIGIT_LIMIT),
    ],
    ids=[
        "prime_class",
        "empty_matrix",
        "ragged_matrix",
        "non_square_det",
        "unsorted_table",
        "dimension_0",
        "kernel_in_cm",
        "kernel_in_end_z",
        "matrix_kernel_in_cm",
        "matrix_kernel_in_end_z",
        "float_degree",
        "float_in_image",
        "float_factor",
        "float_kernel_count",
        "float_kernel_coprime",
        "bool_kernel_coprime",
        "str_kernel_count",
        "float_level",
        "float_basis_entry",
        "str_level",
        "bool_level",
        "int_basis",
        "one_row_basis",
        "three_row_basis",
        "float_lattice_den",
        "bool_lattice_den",
        "str_lattice_den",
        "float_dimension",
        "bool_dimension",
        "str_dimension",
        "print_long_multiplicity",
        "print_long_degree",
        "print_long_coefficient",
        "print_long_kernel_field",
    ],
)
def test_library_errors_are_k0_errors(call, message):
    with pytest.raises(K0Error) as info:
        call()
    assert str(info.value) == message


def test_derivation_check_reads_its_failures():
    for failures in ((), ("step 0: bad",)):
        check = DerivationCheck(failures)
        assert check.ok is bool(check) is (not failures)
    with pytest.raises(AttributeError):
        DerivationCheck(()).ok = False


def test_defaults():
    assert KernelSpec() == KernelSpec(0, 0, 0, 1)
    assert GroupStructure(0, ()).note is None
    assert QuotientRelation(*([FracLattice.unit()] * 4)).stated_orders is None


def test_cached_properties_still_cache():
    sq = _square_classes()
    assert "mask_of" not in vars(sq)
    assert sq.rep(QuadForm(2, 2, 3)) == QuadForm(2, 2, 3)
    assert "mask_of" in vars(sq) and sq.mask_of is sq.mask_of


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


def test_only_square_classes_has_a_dict():
    # Every record is slotted but `SquareClasses`, whose lazy tables are
    # cached properties; a context keeps no per-instance cache.
    for info in pkgutil.iter_modules(k0av.__path__):
        importlib.import_module(f"k0av.{info.name}")
    types = set(_record_types())
    assert {CM, OrdinaryCM, QuadForm, KernelSpec, Derivation} <= types
    assert sorted(t.__qualname__ for t in types if t.__dictoffset__) == ["SquareClasses"]
    assert not hasattr(CM(-20), "__dict__")
    # A lattice is a tuple, not a Record, and slotted all the same.
    assert FracLattice not in types and not FracLattice.__dictoffset__


# Modules whose functions perfbench's tracer rebinds at install time; they
# must be loaded by `import k0av.cli` until the tracer can follow lazy imports.
TRACED_MODULES = (
    "k0av._backend",
    "k0av.arith",
    "k0av.quadforms",
    "k0av.contexts",
    "k0av.kernels",
    "k0av.expr",
    "k0av.k0",
)

_GUARD = """
import json, sys
sys.path.insert(0, {src!r})
import k0av.cli
loaded = {{name: name in sys.modules for name in {names!r}}}
from k0av import oracle
loaded["oracle after import"] = "k0av.oracle" in sys.modules
print(json.dumps(loaded))
"""


def test_cli_import_skips_dataclasses_and_oracle():
    # -S keeps site-packages hooks from loading modules of their own.
    src = os.path.dirname(os.path.dirname(os.path.abspath(k0av.__file__)))
    absent = ("dataclasses", "inspect", "random", "typing", "k0av.oracle")
    code = _GUARD.format(src=src, names=absent + TRACED_MODULES)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert [m for m in absent if loaded[m]] == []
    assert [m for m in TRACED_MODULES if not loaded[m]] == []
    assert loaded["oracle after import"]


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # `from k0av import *` for users; catch it here instead.
    assert [name for name in k0av.__all__ if not hasattr(k0av, name)] == []


# `__init__` and `_backend` import names to export them.
_REEXPORTING = ("__init__.py", "_backend.py")


def test_every_import_is_used():
    # An import no code reads is dead weight at every `k0` start; a module's
    # imported names must each occur as a name in that module.
    pkg = os.path.dirname(os.path.abspath(k0av.__file__))
    unused = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname in _REEXPORTING:
            continue
        with open(os.path.join(pkg, fname), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{fname[:-3]}.{name}" for name in sorted(imported - used)]
    assert unused == []
