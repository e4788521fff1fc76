"""Binary quadratic forms, class groups, square-class cosets, and prime
splitting for imaginary quadratic fields of fundamental discriminant.

A form (a, b, c) is positive definite (a > 0, b^2 - 4ac < 0) and represents
the ideal class of a*Z + ((-b + sqrt(d))/2)*Z.  Reduced means |b| <= a <= c
with b >= 0 whenever |b| = a or a = c.  Only maximal orders are supported:
non-fundamental discriminants are rejected.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import _backend
from ._record import Record, set_field
from .arith import _factor_int, is_prime
from .errors import DiscriminantError

kronecker = _backend.kronecker

# Enumerating the reduced forms of discriminant d takes time linear in |d|.
# On 2 vCPUs with Python 3.11 the slowest `k0 classgroup --disc` calls
# measured just under the limit (h near 6000) take 0.5-0.7 s, start-up
# included; at d = -10^11 - 3 the call ran past 20 s.
MAX_CLASS_GROUP_DISC = 10_000_000

# Discriminants whose class group (and square classes) stay cached.  An entry
# holds h forms, and h reaches several thousand near MAX_CLASS_GROUP_DISC.
DISC_CACHE_SIZE = 32


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

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) <= (other.a, other.b, other.c)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) > (other.a, other.b, other.c)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) >= (other.a, other.b, other.c)
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
    if d % 4 == 0:
        return QuadForm(1, 0, -d // 4)
    return QuadForm(1, 1, (1 - d) // 4)


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
        return principal_form(self.disc)

    def compose(self, f: QuadForm, g: QuadForm) -> QuadForm:
        return compose(f, g)


@lru_cache(maxsize=DISC_CACHE_SIZE)
def class_group(d: int) -> ClassGroup:
    if d < -MAX_CLASS_GROUP_DISC:
        raise DiscriminantError(f"discriminant {d}: |d| is over the class-group limit of {MAX_CLASS_GROUP_DISC}")
    _check_discriminant(d)
    forms = tuple(QuadForm(*t) for t in _backend.reduced_forms_disc(d))
    return ClassGroup(d, forms)


class SquareClasses(Record):
    """The subgroup of squares and canonical coset representatives of C/C^2.

    Each coset representative is the (a, b)-least reduced form in its coset;
    the identity coset is always represented by the principal form.  `rep`
    looks forms up in a table built on its first call, not at construction,
    so a cached instance that never answers `rep` never holds the table.

    C/C^2 is elementary abelian, (Z/2)^k, so its cosets are also numbered by
    k-bit masks with the group law XOR: `reps` maps a mask to its coset
    representative and `mask_of` maps back.  The principal form is mask 0.
    Both tables are likewise built on first use.
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
    def _rep_of(self) -> dict[QuadForm, QuadForm]:
        """Every reduced form mapped to its coset's representative: h compositions."""
        return {compose(r, s): r for r in self.coset_reps for s in self.squares}

    def rep(self, f: QuadForm) -> QuadForm:
        """Canonical representative of f * C^2."""
        if not f.is_reduced:
            f = reduce_form(f)
        try:
            return self._rep_of[f]
        except KeyError:
            raise DiscriminantError(f"form {f} is not of discriminant {self.disc}") from None

    @cached_property
    def reps(self) -> tuple[QuadForm, ...]:
        """Coset representatives indexed by bit mask: 2^k - 1 compositions.

        Walking the representatives in (a, b) order, each one not yet in the
        span becomes the next basis bit, and the span doubles."""
        reps = [self.coset_reps[0]]
        reached = {reps[0]}
        for f in self.coset_reps:
            if f not in reached:
                new = [self.rep(compose(f, r)) for r in reps]
                reached.update(new)
                reps += new
        return tuple(reps)

    @cached_property
    def mask_of(self) -> dict[QuadForm, int]:
        """Each coset representative mapped to its bit mask."""
        return {r: mask for mask, r in enumerate(self.reps)}


@lru_cache(maxsize=DISC_CACHE_SIZE)
def square_classes(d: int) -> SquareClasses:
    group = class_group(d)
    squares = sorted({compose(f, f) for f in group.elements})
    seen: set[QuadForm] = set()
    reps = []
    for f in group.elements:  # (a, b)-ascending, so the first hit is the least
        if f in seen:
            continue
        coset = {compose(f, s) for s in squares}
        seen |= coset
        reps.append(min(coset))
    return SquareClasses(d, tuple(squares), tuple(sorted(reps)))


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
        raise ValueError(f"{ell} is not prime")
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
