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
positive and kill c1 and c2: (1/level)Z^2 contains both.  The goals and
every step's base must contain Z^2 (`arith.contains_z2_times`, the test
`TorsionSubgroup` makes of its basis).  The result, a `DerivationCheck`,
holds only the failures; it is ok, and true, when there are none.

A `Derivation` holds only canonical lattices: its constructor checks each
and names the first that is not ("c1", "step 0: base", ...), so
`validate_derivation`, `to_json` and `degree` test none.  The package's
two builders skip the check.  `Derivation.from_json` reads each lattice
with `FracLattice.from_json`, which keeps one already canonical (every
lattice `to_json` writes is) and reduces any other through `make`;
`derive_same_degree` builds with `make`, `from_subgroup` and `_scaled`,
which reduce as `make` does.  So reading a certificate tests each lattice
once and deriving one tests none.  Each recomputed sum D1+D2 is
`FracLattice.__add__`, in closed form, and the telescoping sum adds each
step's four signed lattices into one dict, keyed by (den, basis), which
names a canonical lattice.

Trivial intersection is decided by the index identity, not by
intersecting.  For D1, D2 >= B the second isomorphism theorem gives
[D1+D2 : B] * [D1 & D2 : B] = [D1 : B] * [D2 : B], so D1 & D2 = B exactly
when [D1+D2 : B] = [D1 : B] * [D2 : B].  Each index is a ratio of
covolumes (a*c/d^2 for [[a, b], [0, c]]/d), and D1+D2 is needed for the
relation anyway.  A step's two orders come from `FracLattice.index_over`,
which checks containment from one read of both bases and refuses a sub
that does not contain the base; D1+D2 contains D1, so its index is read
unchecked.  `arith.left_kernel` still serves `&`: for the lines a
link avoids, for the public API, and for a step whose containment check
already failed, so its failure lines stay the same.

A derivation (`_derive`) is a chain of links.  A link takes a base B and
lattices L1, L2, both cyclic of order c over B inside (1/c)*B, and picks
a third such lattice L3 whose line in ((1/p)*B)/B, at each prime p of c,
is neither L1's nor L2's.  With r the product of the primes of c, one
intersection per lattice, L1 & (1/r)*B and L2 & (1/r)*B, holds both lines
at every p.  One of (1, 0), (0, 1), (1, 1) in B's coordinates always
serves, and CRT puts the primes together.  Then L1 & L3 = L2 & L3 = B
and L1 + L3 = L2 + L3 = (1/c)*B, so -R(B, L1, L3) + R(B, L2, L3) =
[L1] - [L2]: two steps.

Write L/Z^2 = Z/alpha x Z/beta with alpha | beta; for a canonical L >= Z^2,
beta is L's den.  A type-change link takes L of type (alpha, beta) to
type (alpha*p, beta/p), over the base p*L + (1/alpha)*Z^2, from L to that
base plus (1/(alpha*p))*Z^2.  The chain raises both goals to type
(a*, m/a*), a* = lcm(alpha1, alpha2), and one same-type link over
(1/a*)*Z^2 closes the gap; the second goal's links enter with their signs
flipped.  At each prime p, with e1, e2 the exponents of p in alpha1,
alpha2, the raises take 2*max(e1, e2) - e1 - e2 <= v_p(m)/2 links, so a
certificate has at most Omega(m) + 2 steps.  The primes of m come from
trial division.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod

from ._record import Record, set_field
from .arith import (
    FactoredRational,
    FracLattice,
    TorsionSubgroup,
    contains_z2_times,
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

    Every lattice is a canonical `FracLattice`: the constructor raises
    DerivationError naming the first that is not.  `stated_degree` holds
    the degree a certificate stated, if any; it takes no part in equality
    or hashing.
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
        _check_canonical(c1, c2, steps)
        _store(self, level, c1, c2, steps, stated_degree)

    @property
    def degree(self) -> int:
        return self.c1.index_over(FracLattice.unit())

    def to_json(self) -> dict:
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
            if not isinstance(raw_steps, (list, tuple)):
                raise ValueError("steps must be a list of step objects")
            steps = []
            for i, entry in enumerate(raw_steps):
                if not isinstance(entry, Mapping):
                    raise ValueError(f"step {i} must be an object")
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
        return _trusted(level, c1, c2, tuple(steps), degree)


def _store(d: Derivation, *values) -> None:
    for name, value in zip(Derivation.__slots__, values, strict=True):
        set_field(d, name, value)


def _trusted(level, c1, c2, steps, stated_degree=None) -> Derivation:
    """A Derivation over lattices the package built canonical, skipping
    `__init__`'s check."""
    out = object.__new__(Derivation)
    _store(out, level, c1, c2, steps, stated_degree)
    return out


def _check_canonical(c1, c2, steps) -> None:
    """Raise unless every lattice is canonical, as `FracLattice.make` and
    `from_json` build them: validation assumes Hermite bases and a
    positive denominator, and only a hand-built lattice can lack them."""
    lattices = [c1, c2]
    for _, rel in steps:
        lattices += (rel.base, rel.sub1, rel.sub2, rel.joint)
    for k, lat in enumerate(lattices):
        if not (isinstance(lat, FracLattice) and lat.is_canonical):
            i, j = divmod(k - 2, 4)
            name = ("c1", "c2")[k] if k < 2 else f"step {i}: " + ("base", "sub1", "sub2", "sum")[j]
            raise DerivationError(f"{name} is not a canonical lattice")


class DerivationCheck(Record):
    """The failures `validate_derivation` found; ok, and true, when none."""

    __slots__ = _fields = ("failures",)
    failures: tuple[str, ...]

    def __init__(self, failures: tuple[str, ...]) -> None:
        set_field(self, "failures", failures)

    def __bool__(self) -> bool:
        return not self.failures

    ok = property(__bool__)


def validate_derivation(d: Derivation) -> DerivationCheck:
    """Recompute every step and the telescoping sum; collect all failures.
    The lattices are canonical, as every Derivation's are."""
    failures: list[str] = []
    level = d.level
    if level < 1:
        failures.append(f"level {level} is not positive")
    for name, lat in (("c1", d.c1), ("c2", d.c2)):
        # (1/level)Z^2 contains [[a, b], [0, c]]/den when den divides
        # level*a, level*b and level*c; den is prime to gcd(a, b, c),
        # so exactly when den divides level.
        if level >= 1 and level % lat.den:
            failures.append(f"{name} is not killed by the level {level}")
        if not contains_z2_times(lat.den, lat.basis):
            failures.append(f"{name} does not contain Z^2")
    for i, (sign, rel) in enumerate(d.steps):
        if sign not in (1, -1):
            failures.append(f"step {i}: sign {sign} is not +1/-1")
        # A sub that contains the base, and a correct stored sum, then
        # contain Z^2 too.
        if not contains_z2_times(rel.base.den, rel.base.basis):
            failures.append(f"step {i}: base does not contain Z^2")
        base, sub1, sub2 = rel.base, rel.sub1, rel.sub2
        orders = []
        for name, sub in (("sub1", sub1), ("sub2", sub2)):
            try:
                orders.append(sub.index_over(base))
            except DerivationError:
                failures.append(f"step {i}: {name} does not contain the base lattice")
        joint = sub1 + sub2
        if len(orders) == 2:
            # The index identity of the module docstring; never the stored sum.
            trivial = _index(joint, base) == orders[0] * orders[1]
        else:
            orders = None
            trivial = (sub1 & sub2) == base
        if not trivial:
            failures.append(f"step {i}: subgroups intersect nontrivially")
        if joint != rel.joint:
            failures.append(f"step {i}: stored sum lattice is wrong")
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
    return DerivationCheck(tuple(failures))


def _scaled(lat: FracLattice, k: int) -> FracLattice:
    """(1/k) * lat, reduced as `make` would."""
    (a, b), (_, d) = lat.basis
    g = gcd(lat.den * k, a, b, d)
    return FracLattice(lat.den * k // g, ((a // g, b // g), (0, d // g)))


def _primes(n: int) -> list[int]:
    """The primes dividing n >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _link(base: FracLattice, l1: FracLattice, l2: FracLattice, c: int, primes: list[int]):
    """The link -R(base, l1, l3) + R(base, l2, l3) = [l1] - [l2] of the
    module docstring, for `primes` a list that holds every prime of c.
    l3 = base + (x, y)/c in base's coordinates, with (x, y) = (u, v) mod p
    for the first (u, v) whose point (u, v)/p neither line holds."""
    den, ((a, b), (_, d)) = base.den, base.basis
    x, y, mod = 0, 0, 1
    walked = [p for p in primes if c % p == 0]
    # A point (u, v)/p lies in (1/p)*base <= (1/r)*base, r the product of
    # the walked primes, so l & (1/r)*base holds it exactly when l does.
    torsion = _scaled(base, prod(walked))
    lines = (l1 & torsion, l2 & torsion)
    for p in walked:
        u, v = next(
            (u, v) for u, v in ((1, 0), (0, 1), (1, 1))
            if not any(t.member((u * a, u * b + v * d), den * p) for t in lines)
        )
        k = pow(mod, -1, p)
        x, y, mod = x + mod * ((u - x) * k % p), y + mod * ((v - y) * k % p), mod * p
    l3 = FracLattice.make(den * c, [(x * a, x * b + y * d)], (a * c, b * c, d * c))
    joint = _scaled(base, c)  # l1 + l3 = l2 + l3: both meet l3 in base alone
    return [(-1, QuotientRelation(base, l1, l3, joint)), (1, QuotientRelation(base, l2, l3, joint))]


def _derive(l1: FracLattice, l2: FracLattice, m: int) -> list:
    """Steps telescoping to [l1] - [l2], for l1 and l2 of order m over Z^2:
    both are raised to type (top, m/top) by type-change links, and one
    same-type link over (1/top)*Z^2 joins the two ends.  A lattice of
    order m and type (alpha, beta) has den beta, so alpha = m // den."""
    primes = _primes(m)
    top = lcm(m // l1.den, m // l2.den)
    ends, halves = [], []
    for lat in (l1, l2):
        steps = []
        while (alpha := m // lat.den) != top:
            p = next(p for p in primes if top // alpha % p == 0)
            # base = p*lat + (1/alpha)*Z^2, next = p*lat + (1/(alpha*p))*Z^2,
            # both over lat.den, where (1/alpha)*Z^2 is k*Z^2.
            (a, b), (_, d) = lat.basis
            rows, k = [(p * a, p * b), (0, p * d)], lat.den // alpha
            nxt = FracLattice.make(lat.den, rows, (k // p, 0, k // p))
            steps += _link(FracLattice.make(lat.den, rows, (k, 0, k)), lat, nxt, p, [p])
            lat = nxt
        ends.append(lat)
        halves.append(steps)
    (e1, e2), (steps1, steps2) = ends, halves
    unit = FracLattice(top, ((1, 0), (0, 1)))
    middle = _link(unit, e1, e2, m // (top * top), primes) if e1 != e2 else []
    return steps1 + middle + [(-s, rel) for s, rel in reversed(steps2)]


# Largest order derive_same_degree accepts.  A certificate has at most
# Omega(m) + 2 steps, so its length no longer bounds the order, but the
# limit stays at 50,000: lifting it to rho's budget needs `arith.factor`
# on the derive path, and the benchmark's certify workload predicts no
# `factor` call, so it waits on that prediction changing.
MAX_DERIVE_ORDER = 50_000


def derive_same_degree(n: int, c1: TorsionSubgroup, c2: TorsionSubgroup) -> Derivation:
    """Certificate that the quotients by two order-n subgroups agree in K0.

    The subgroups must have equal level and order n, at most
    MAX_DERIVE_ORDER.  The certificate is a chain of two-step links, at
    most Omega(n) + 2 steps, and validates by recomputation alone.
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
    steps = tuple(_derive(lat1, lat2, n))
    derivation = _trusted(c1.level, lat1, lat2, steps)
    check = validate_derivation(derivation)
    if not check:
        raise DerivationError("internal: derivation failed validation: " + "; ".join(check.failures))
    return derivation
