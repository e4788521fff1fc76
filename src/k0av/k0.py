"""Formal K0 classes and constructive certificates that equal-degree
quotients agree.

A class is a pair (multiplicity, degree class).  Addition is componentwise,
duality inverts the degree class and fixes the multiplicity.

Derivations prove [E/C1] = [E/C2] for equal-order subgroups C1, C2 using only
quotient relations: for subgroups D1, D2 of some quotient B with trivial
intersection,

    [B] + [B/(D1+D2)] = [B/D1] + [B/D2].

Everything is modelled on a rank-2 lattice: the base object is Z^2, a
quotient is a lattice L with Z^2 <= L and [L : Z^2] finite, and a subgroup of
the quotient at L is a finite-index overlattice.  A derivation is a signed
list of quotient relations whose formal sum telescopes to [L1] - [L2].  The
lattices are `arith.FracLattice`s, the one rank-2 lattice type: the two
input subgroups arrive as `arith.TorsionSubgroup`s, a validated (level,
Hermite basis) pair, and `derive_same_degree` turns them into lattices with
`FracLattice.from_subgroup` before any arithmetic.

Certificate format (JSON, stable, tag "k0-derivation/1"):

    {"format": "k0-derivation/1", "level": n, "degree": m,
     "c1": LAT, "c2": LAT,
     "steps": [{"sign": +1|-1, "base": LAT, "sub1": LAT, "sub2": LAT,
                "sum": LAT, "orders": [o1, o2]}, ...]}

where LAT = {"den": d, "basis": [[a, b], [0, c]]} encodes the lattice spanned
by the basis rows divided by d.  Validation recomputes every containment,
intersection, join, order, and the telescoping sum; a stated step `orders`
or top-level `degree` must match the recomputed one.  The level must be
positive and kill c1 and c2: (1/level)Z^2 contains both.

Reading and checking a certificate do no more work than the checks need.
`Derivation.from_json` keeps each lattice that is already canonical (every
lattice `to_json` writes is) as it is, and reduces any other through
`FracLattice.make`.  Each recomputed sum D1+D2 folds D2's two rows into
D1's Hermite basis (`FracLattice.__add__`).  The telescoping sum adds
each step's four signed lattices into one dict, keyed by (den, basis),
which names a canonical lattice.

Trivial intersection is decided by the index identity, not by
intersecting.  For D1, D2 >= B the second isomorphism theorem gives
[D1+D2 : B] * [D1 & D2 : B] = [D1 : B] * [D2 : B], so D1 & D2 = B exactly
when [D1+D2 : B] = [D1 : B] * [D2 : B].  Each index is a ratio of
covolumes (a*c/d^2 for [[a, b], [0, c]]/d), and D1+D2 is needed for the
relation anyway.  `arith.left_kernel` still serves `&`: for the point
lattices of the construction, for the public API, and for a step whose
containment check already failed, so its failure lines stay the same.

A certificate is written (`Derivation.to_json`) only after every lattice
of it is checked canonical, so a hand-built lattice is named rather than
written out or crashed on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Mapping

from ._record import Record, set_field
from .arith import (
    FactoredRational,
    FracLattice,
    TorsionSubgroup,
    divisors,
    is_prime,
    printable_int,
    strict_int,
)
from .contexts import DegreeClass, IsogenyContext
from .errors import DerivationError, LevelMismatchError
from .kernels import KernelSpec, kernel_class


class K0Element(Record):
    """Class in the Grothendieck group: multiplicity plus degree class."""

    __slots__ = _fields = ("n", "deg")
    n: int
    deg: DegreeClass

    def __init__(self, n: int, deg: DegreeClass) -> None:
        _set_n(self, n)
        _set_deg(self, deg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.deg == other.deg
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.deg))

    def __add__(self, other: K0Element) -> K0Element:
        return K0Element(self.n + other.n, self.deg * other.deg)

    def __neg__(self) -> K0Element:
        return K0Element(-self.n, self.deg.inverse())

    def __sub__(self, other: K0Element) -> K0Element:
        return self + (-other)

    def scale(self, k: int) -> K0Element:
        if k == 1:
            return self
        return K0Element(self.n * k, self.deg**k)

    def dual(self) -> K0Element:
        """Class of the dual object: same multiplicity, inverted degree."""
        return K0Element(self.n, self.deg.inverse())

    def describe(self) -> str:
        return f"({printable_int(self.n, 'multiplicity')}, {self.deg.describe()})"

    def to_json(self) -> dict:
        return {"n": printable_int(self.n, "multiplicity"), "degree_class": self.deg.to_json()}


_set_n = K0Element.n.__set__
_set_deg = K0Element.deg.__set__


def k0_class(
    ctx: IsogenyContext, n: int, degree: FactoredRational | Fraction | int | KernelSpec
) -> K0Element:
    """Class of n copies of an object at isogeny distance `degree` from the
    base object.  A `KernelSpec` goes to `kernel_class`, which alone decides
    which contexts take a kernel."""
    if isinstance(degree, KernelSpec):
        return K0Element(n, kernel_class(ctx, degree))
    return K0Element(n, ctx.degree_class(degree))


def _index(lat: FracLattice, base: FracLattice) -> int:
    """[lat : base] for base <= lat, the ratio of the covolumes; unlike
    `FracLattice.index_over`, containment is the caller's to check."""
    num, den = base.covolume
    lat_num, lat_den = lat.covolume
    return num * lat_den // (den * lat_num)


class QuotientRelation(Record):
    """[base] + [sum] = [sub1] + [sub2] for subgroups with trivial intersection.

    `stated_orders` holds the orders a certificate stated for the step, if
    any; validation compares them with the recomputed ones.  It takes no
    part in equality or hashing.
    """

    __slots__ = ("base", "sub1", "sub2", "joint", "stated_orders")
    _fields = ("base", "sub1", "sub2", "joint")
    _uncompared = ("stated_orders",)
    base: FracLattice
    sub1: FracLattice
    sub2: FracLattice
    joint: FracLattice
    stated_orders: tuple[int, int] | None

    def __init__(
        self,
        base: FracLattice,
        sub1: FracLattice,
        sub2: FracLattice,
        joint: FracLattice,
        stated_orders: tuple[int, int] | None = None,
    ) -> None:
        _set_base(self, base)
        _set_sub1(self, sub1)
        _set_sub2(self, sub2)
        _set_joint(self, joint)
        _set_stated_orders(self, stated_orders)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.sub1, self.sub2, self.joint) == (
                other.base, other.sub1, other.sub2, other.joint
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.sub1, self.sub2, self.joint))

    @staticmethod
    def build(base: FracLattice, sub1: FracLattice, sub2: FracLattice) -> QuotientRelation:
        if not (sub1.contains(base) and sub2.contains(base)):
            raise DerivationError("relation subgroups must contain the base lattice")
        joint = sub1 + sub2
        if _index(joint, base) != _index(sub1, base) * _index(sub2, base):
            raise DerivationError("subgroups intersect nontrivially")
        return QuotientRelation(base, sub1, sub2, joint)

    def vector(self) -> dict:
        """[base] + [sum] - [sub1] - [sub2] as lattice -> nonzero multiplicity."""
        v: dict = {}
        for lat, mult in ((self.base, 1), (self.joint, 1), (self.sub1, -1), (self.sub2, -1)):
            v[lat] = v.get(lat, 0) + mult
        return {lat: mult for lat, mult in v.items() if mult}

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "sub1": self.sub1.to_json(),
            "sub2": self.sub2.to_json(),
            "sum": self.joint.to_json(),
            "orders": [self.sub1.index_over(self.base), self.sub2.index_over(self.base)],
        }


_set_base = QuotientRelation.base.__set__
_set_sub1 = QuotientRelation.sub1.__set__
_set_sub2 = QuotientRelation.sub2.__set__
_set_joint = QuotientRelation.joint.__set__
_set_stated_orders = QuotientRelation.stated_orders.__set__


class Derivation(Record):
    """Signed quotient relations telescoping to [L1] - [L2] = 0.

    `stated_degree` holds the degree a certificate stated, if any; it takes
    no part in equality or hashing.
    """

    __slots__ = ("level", "c1", "c2", "steps", "stated_degree")
    _fields = ("level", "c1", "c2", "steps")
    _uncompared = ("stated_degree",)
    level: int
    c1: FracLattice
    c2: FracLattice
    steps: tuple[tuple[int, QuotientRelation], ...]
    stated_degree: int | None

    def __init__(
        self,
        level: int,
        c1: FracLattice,
        c2: FracLattice,
        steps: tuple[tuple[int, QuotientRelation], ...],
        stated_degree: int | None = None,
    ) -> None:
        set_field(self, "level", level)
        set_field(self, "c1", c1)
        set_field(self, "c2", c2)
        set_field(self, "steps", steps)
        set_field(self, "stated_degree", stated_degree)

    @property
    def degree(self) -> int:
        if not self.c1.is_canonical:
            raise DerivationError("c1 is not a canonical lattice")
        return self.c1.index_over(FracLattice.unit())

    def to_json(self) -> dict:
        _check_canonical(self)  # never write a hand-built non-canonical lattice
        return {
            "format": "k0-derivation/1",
            "level": self.level,
            "degree": self.degree,
            "c1": self.c1.to_json(),
            "c2": self.c2.to_json(),
            "steps": [dict(sign=s, **rel.to_json()) for s, rel in self.steps],
        }

    @staticmethod
    def from_json(data: Mapping) -> Derivation:
        if not isinstance(data, Mapping) or data.get("format") != "k0-derivation/1":
            raise DerivationError("not a k0-derivation/1 certificate")
        try:
            level = strict_int(data["level"])
            degree = data.get("degree")
            if degree is not None:
                degree = strict_int(degree)
            c1 = FracLattice.from_json(data["c1"])
            c2 = FracLattice.from_json(data["c2"])
            raw_steps = data["steps"]
            steps = []
            for entry in raw_steps:
                sign = strict_int(entry["sign"])
                orders = entry.get("orders")
                if orders is not None:
                    if not isinstance(orders, (list, tuple)) or len(orders) != 2:
                        raise ValueError("step orders must be a pair of integers")
                    orders = (strict_int(orders[0]), strict_int(orders[1]))
                rel = QuotientRelation(
                    FracLattice.from_json(entry["base"]),
                    FracLattice.from_json(entry["sub1"]),
                    FracLattice.from_json(entry["sub2"]),
                    FracLattice.from_json(entry["sum"]),
                    orders,
                )
                steps.append((sign, rel))
        except (KeyError, TypeError, ValueError) as exc:
            raise DerivationError(f"malformed certificate: {exc}") from exc
        return Derivation(level, c1, c2, tuple(steps), degree)


class DerivationCheck(Record):
    __slots__ = _fields = ("ok", "failures")
    ok: bool
    failures: tuple[str, ...]

    def __init__(self, ok: bool, failures: tuple[str, ...]) -> None:
        set_field(self, "ok", ok)
        set_field(self, "failures", failures)

    def __bool__(self) -> bool:
        return self.ok


def _check_canonical(d: Derivation) -> None:
    """Raise unless every lattice of d is canonical, as `FracLattice.make`
    and `from_json` build them: the recomputation assumes Hermite bases and
    a positive denominator, and only a hand-built lattice can lack them."""
    lattices = [d.c1, d.c2]
    for _, rel in d.steps:
        lattices += (rel.base, rel.sub1, rel.sub2, rel.joint)
    for k, lat in enumerate(lattices):
        if not (isinstance(lat, FracLattice) and lat.is_canonical):
            i, j = divmod(k - 2, 4)
            name = ("c1", "c2")[k] if k < 2 else f"step {i}: " + ("base", "sub1", "sub2", "sum")[j]
            raise DerivationError(f"{name} is not a canonical lattice")


def validate_derivation(d: Derivation) -> DerivationCheck:
    """Recompute every step and the telescoping sum; collect all failures.
    A lattice that is not canonical raises DerivationError instead."""
    _check_canonical(d)
    failures: list[str] = []
    level = d.level
    if level < 1:
        failures.append(f"level {level} is not positive")
    else:
        for name, lat in (("c1", d.c1), ("c2", d.c2)):
            # (1/level)Z^2 contains [[a, b], [0, c]]/den when den divides
            # level*a, level*b and level*c; den is prime to gcd(a, b, c),
            # so exactly when den divides level.
            if level % lat.den:
                failures.append(f"{name} is not killed by the level {level}")
    for i, (sign, rel) in enumerate(d.steps):
        if sign not in (1, -1):
            failures.append(f"step {i}: sign {sign} is not +1/-1")
        base, sub1, sub2 = rel.base, rel.sub1, rel.sub2
        contained = True
        for name, sub in (("sub1", sub1), ("sub2", sub2)):
            if not sub.contains(base):
                failures.append(f"step {i}: {name} does not contain the base lattice")
                contained = False
        orders = None
        try:
            joint = sub1 + sub2
            if contained:
                # The index identity of the module docstring; never the stored sum.
                orders = [_index(sub1, base), _index(sub2, base)]
                trivial = _index(joint, base) == orders[0] * orders[1]
            else:
                trivial = (sub1 & sub2) == base
            if not trivial:
                failures.append(f"step {i}: subgroups intersect nontrivially")
            if joint != rel.joint:
                failures.append(f"step {i}: stored sum lattice is wrong")
        except DerivationError as exc:
            failures.append(f"step {i}: {exc}")
        stated = rel.stated_orders
        if orders is not None and stated is not None and list(stated) != orders:
            failures.append(
                f"step {i}: stated orders {list(stated)} are not the indices {orders} over the base"
            )
    # The steps telescope when their signed sum less [c1] - [c2] is zero.
    signed = [(d.c1, -1), (d.c2, 1)]
    for sign, rel in d.steps:
        signed += ((rel.base, sign), (rel.joint, sign), (rel.sub1, -sign), (rel.sub2, -sign))
    total: dict = {}
    for lat, mult in signed:
        key = lat.den, lat.basis
        total[key] = total.get(key, 0) + mult
    if any(total.values()):
        failures.append("steps do not telescope to [c1] - [c2]")
    num1, den1 = d.c1.covolume
    num2, den2 = d.c2.covolume
    if num1 * den2 != num2 * den1:
        failures.append("goal subgroups have different orders")
    elif d.stated_degree is not None and d.stated_degree * num1 != den1:
        # The order of c1 over Z^2 is the inverse of its covolume.
        failures.append(
            f"stated degree {d.stated_degree} is not the order {Fraction(den1, num1)} of the goal subgroups"
        )
    return DerivationCheck(not failures, tuple(failures))


def _index_subgroups(base: FracLattice, m: int) -> Iterator[FracLattice]:
    """All index-m overlattices of base, lexicographic in the HNF triple.

    For base = [[a, b], [0, d]]/den these are the spans of the rows
    (x*a, x*b + t*d), (0, z*d) over den*m, for x*z = m and 0 <= t < z.
    The rows are already triangular, so their Hermite form only reduces
    x*b + t*d mod z*d; dividing out the gcd with den*m then gives what
    `FracLattice.make` would return.
    """
    (a, b), (_, d) = base.basis
    den = base.den * m
    for x in divisors(m):
        z = m // x
        xa, xb, zd = x * a, x * b, z * d
        g_outer = gcd(den, xa, zd)
        for t in range(z):
            y = (xb + t * d) % zd
            g = gcd(g_outer, y)
            yield FracLattice(den // g, ((xa // g, y // g), (0, zd // g)))


def _point_lattice(base: FracLattice, sub: FracLattice, ell: int) -> FracLattice:
    """base extended by a point of order ell of the subgroup sub/base
    (first suitable Hermite basis vector; deterministic)."""
    ell_torsion = FracLattice.make(base.den * ell, base.basis)  # (1/ell) * base
    tor = sub & ell_torsion
    for row in tor.basis:
        if not base.member(row, tor.den):
            return base.extended_by(row, tor.den)
    raise DerivationError(f"subgroup has no point of order {ell}")


def _derive(base: FracLattice, l1: FracLattice, l2: FracLattice, m: int):
    if l1 == l2:
        return []
    if is_prime(m):
        third = None
        for cand in _index_subgroups(base, m):
            if cand != l1 and cand != l2:
                third = cand
                break
        assert third is not None  # m + 1 >= 3 candidates
        return [
            (-1, QuotientRelation.build(base, l1, third)),
            (1, QuotientRelation.build(base, l2, third)),
        ]
    # The smallest divisor above 1 is the least prime factor.
    ell1 = divisors(m)[1]
    rest = m
    while rest % ell1 == 0:
        rest //= ell1
    ell2 = ell1 if rest == 1 else divisors(rest)[1]
    p1 = _point_lattice(base, l1, ell1)
    p2 = _point_lattice(base, l2, ell2)
    span = p1 + p2
    middle = None
    for cand in _index_subgroups(base, m):
        if cand.contains(span):
            middle = cand
            break
    if middle is None:
        raise DerivationError(
            f"no index-{m} subgroup over the base contains the selected points"
        )
    return _derive(p1, l1, middle, m // ell1) + _derive(p2, middle, l2, m // ell2)


# Largest order derive_same_degree accepts.  Its work grows with the
# divisors of the order: on 2 vCPUs with Python 3.11, the slowest pair
# measured at or under the limit (order 48048) derives in about 0.4 s, and
# pairs at order 2^20 take 4 to 8 s.
MAX_DERIVE_ORDER = 50_000


def derive_same_degree(n: int, c1: TorsionSubgroup, c2: TorsionSubgroup) -> Derivation:
    """Certificate that the quotients by two order-n subgroups agree in K0.

    The subgroups must have equal level and order n, at most
    MAX_DERIVE_ORDER.  The construction walks shared prime-order points
    through intermediate quotients, so the result validates by
    recomputation alone.
    """
    if c1.level != c2.level:
        raise LevelMismatchError("subgroup levels differ")
    if c1.order != c2.order:
        raise DerivationError(f"subgroup orders differ: {c1.order} != {c2.order}")
    if c1.order != n:
        raise DerivationError(f"claimed degree {n} != subgroup order {c1.order}")
    if n > MAX_DERIVE_ORDER:
        raise DerivationError(f"subgroup order {n} is over the limit of {MAX_DERIVE_ORDER} for a derivation")
    lat1 = FracLattice.from_subgroup(c1)
    lat2 = FracLattice.from_subgroup(c2)
    steps = tuple(_derive(FracLattice.unit(), lat1, lat2, n))
    derivation = Derivation(c1.level, lat1, lat2, steps)
    check = validate_derivation(derivation)
    if not check:
        raise DerivationError("internal: derivation failed validation: " + "; ".join(check.failures))
    return derivation
