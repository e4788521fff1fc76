"""Binary quadratic forms, class groups, square-class cosets, and prime
splitting for imaginary quadratic fields of fundamental discriminant.

A form (a, b, c) is positive definite (a > 0, b^2 - 4ac < 0) and represents
the ideal class of a*Z + ((-b + sqrt(d))/2)*Z.  Reduced means |b| <= a <= c
with b >= 0 whenever |b| = a or a = c.  Only maximal orders are supported:
non-fundamental discriminants are rejected.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, total_ordering

from . import _backend
from ._record import Record, set_field
from .arith import _factor_int, is_prime
from .errors import DiscriminantError, KernelInputError

kronecker = _backend.kronecker

# Enumerating the reduced forms of discriminant d takes time linear in |d|.
# On 2 vCPUs with Python 3.11 the slowest `k0 classgroup --disc` calls
# measured just under the limit (h near 6000) take 0.5-0.7 s, start-up
# included; at d = -10^11 - 3 the call ran past 20 s.
MAX_CLASS_GROUP_DISC = 10_000_000

# Discriminants whose class group (and square classes) stay cached.  An entry
# holds h forms, and h reaches several thousand near MAX_CLASS_GROUP_DISC.
DISC_CACHE_SIZE = 32


@total_ordering
class QuadForm(Record):
    """The form a*x^2 + b*xy + c*y^2, ordered as the triple (a, b, c)."""

    __slots__ = _fields = ("a", "b", "c")
    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int) -> None:
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise DiscriminantError("form is not positive definite")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.a == other.a and self.b == other.b and self.c == other.c
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) < (other.a, other.b, other.c)
        return NotImplemented

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not -a < b <= a <= c:
            return False
        return b >= 0 or (a != b and a != c)

    def inverse(self) -> QuadForm:
        return reduce_form(QuadForm(self.a, -self.b, self.c))

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


_set_a = QuadForm.a.__set__
_set_b = QuadForm.b.__set__
_set_c = QuadForm.c.__set__


def reduce_form(f: QuadForm) -> QuadForm:
    return QuadForm(*_backend.reduce_triple(f.a, f.b, f.c))


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    if f.disc != g.disc:
        raise DiscriminantError("cannot compose forms of different discriminants")
    if not f.is_reduced:
        f = reduce_form(f)
    if not g.is_reduced:
        g = reduce_form(g)
    return QuadForm(*_backend.compose_triples(f.a, f.b, f.c, g.a, g.b, g.c))


def principal_form(d: int) -> QuadForm:
    _check_discriminant(d)
    return _principal(d)


def _principal(d: int) -> QuadForm:
    """The principal form of a discriminant already checked."""
    return QuadForm(1, 0, -d // 4) if d % 4 == 0 else QuadForm(1, 1, (1 - d) // 4)


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in _factor_int(n))


def is_fundamental_discriminant(d: int) -> bool:
    if d >= 0 or d % 4 not in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    m = d // 4
    return m % 4 in (2, 3) and _squarefree(-m)


def _check_discriminant(d: int) -> None:
    if d >= 0 or d % 4 not in (0, 1):
        raise DiscriminantError(f"{d} is not a negative quadratic discriminant")
    if not is_fundamental_discriminant(d):
        raise DiscriminantError(f"discriminant {d}: non-maximal order unsupported")


class ClassGroup(Record):
    """Form class group of a fundamental discriminant, elements sorted by (a, b)."""

    __slots__ = _fields = ("disc", "elements")
    disc: int
    elements: tuple[QuadForm, ...]

    def __init__(self, disc: int, elements: tuple[QuadForm, ...]) -> None:
        set_field(self, "disc", disc)
        set_field(self, "elements", elements)

    @property
    def h(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> QuadForm:
        return _principal(self.disc)


@lru_cache(maxsize=DISC_CACHE_SIZE)
def class_group(d: int) -> ClassGroup:
    if d < -MAX_CLASS_GROUP_DISC:
        raise DiscriminantError(f"discriminant {d}: |d| is over the class-group limit of {MAX_CLASS_GROUP_DISC}")
    _check_discriminant(d)
    forms = tuple(QuadForm(*t) for t in _backend.reduced_forms_disc(d))
    return ClassGroup(d, forms)


class SquareClasses(Record):
    """The subgroup of squares and canonical coset representatives of C/C^2:
    each the (a, b)-least reduced form in its coset, the principal form first.

    C/C^2 is (Z/2)^k, so cosets are numbered by k-bit masks with the group
    law XOR, the principal coset 0.  `mask_of` maps every reduced form to its
    coset's mask and `reps` a mask to its representative; both are built on
    first use, so a cached instance that never answers `rep` holds neither.
    It stays lazy, the one record with a `__dict__`: perfbench's degree_query
    trace predicts the `compose` calls this walk makes on a context's first
    `rep`; built with the instance, it would run in set-up instead.
    """

    _fields = ("disc", "squares", "coset_reps")
    disc: int
    squares: tuple[QuadForm, ...]
    coset_reps: tuple[QuadForm, ...]

    def __init__(
        self, disc: int, squares: tuple[QuadForm, ...], coset_reps: tuple[QuadForm, ...]
    ) -> None:
        set_field(self, "disc", disc)
        set_field(self, "squares", squares)
        set_field(self, "coset_reps", coset_reps)

    @property
    def index(self) -> int:
        return len(self.coset_reps)

    @cached_property
    def mask_of(self) -> dict[QuadForm, int]:
        """Every reduced form mapped to its coset's bit mask."""
        return _coset_masks(self.squares, self.coset_reps)

    @cached_property
    def reps(self) -> tuple[QuadForm, ...]:
        """Coset representatives indexed by bit mask."""
        return tuple(sorted(self.coset_reps, key=self.mask_of.__getitem__))

    def rep(self, f: QuadForm) -> QuadForm:
        """Canonical representative of f * C^2."""
        if not f.is_reduced:
            f = reduce_form(f)
        try:
            return self.reps[self.mask_of[f]]
        except KeyError:
            raise DiscriminantError(f"form {f} is not of discriminant {self.disc}") from None


def _coset_masks(squares, forms) -> dict[QuadForm, int]:
    """Every form of the group C^2 and `forms` generate, mapped to its coset's
    bit mask.  The squares get mask 0; walking `forms` in order, each form
    not yet reached takes the next bit, and its products with the forms
    reached so far take their masks with that bit."""
    mask_of = dict.fromkeys(squares, 0)
    bit = 1
    for f in forms:
        if f not in mask_of:
            mask_of.update([(compose(f, g), m | bit) for g, m in mask_of.items()])
            bit <<= 1
    return mask_of


@lru_cache(maxsize=DISC_CACHE_SIZE)
def square_classes(d: int) -> SquareClasses:
    elements = class_group(d).elements
    squares = sorted({compose(f, f) for f in elements})
    mask_of = _coset_masks(squares, elements)
    least = {mask_of[f]: f for f in reversed(elements)}  # the last write is the (a, b)-least
    return SquareClasses(d, tuple(squares), tuple(sorted(least.values())))


class PrimeClass(Record):
    """Splitting of a rational prime: inert, ramified, or split, with the
    reduced form of a prime ideal above it in the non-inert cases."""

    __slots__ = _fields = ("kind", "form")
    kind: str
    form: QuadForm | None

    def __init__(self, kind: str, form: QuadForm | None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "form", form)

    @property
    def is_inert(self) -> bool:
        return self.kind == "inert"


def _mod_sqrt(a: int, p: int) -> int:
    """Square root mod an odd prime; a must be a residue."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def prime_class(ell: int, d: int) -> PrimeClass:
    """Class of a prime ideal above ell in the maximal order of disc d."""
    _check_discriminant(d)
    if not is_prime(ell):
        raise KernelInputError(f"{ell} is not prime")
    symbol = kronecker(d, ell)
    if symbol == -1:
        return PrimeClass("inert", None)
    kind = "ramified" if symbol == 0 else "split"
    if ell == 2:
        if d % 8 == 1:
            b = 1
        elif d % 16 == 8:
            b = 0
        else:  # d == 12 (mod 16)
            b = 2
    else:
        b = _mod_sqrt(d, ell)
        if (b - d) % 2 != 0:
            b += ell
    c, rem = divmod(b * b - d, 4 * ell)
    assert rem == 0
    return PrimeClass(kind, reduce_form(QuadForm(ell, b, c)))
