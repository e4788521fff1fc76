"""Isogeny contexts and canonical degree classes.

A context fixes an isotypic isogeny category by its endomorphism data and
exposes the abelian group where isogeny degrees live once global squares
(more generally, degrees of self-isogenies) are quotiented out:

  * EndZ(g):        integer endomorphisms in dimension g; a degree q maps to
                    its prime exponents mod 2g, so the group is Z/2g per prime.
  * CM(disc):       elliptic with CM by the maximal order of a fundamental
                    discriminant; degrees map to (bit mask of a coset of
                    C/C^2, primes of odd inert exponent).
  * Supersingular(p): characteristic p, quaternionic endomorphisms; every
                    degree class is trivial, so no degree is factored.
  * OrdinaryCM(disc, p): ordinary reduction at a split prime p; same value
                    group as CM(disc), p allowed in degrees.
  * CharPEndZ(p):   characteristic p with integer endomorphisms; classes are
                    (etale-minus-multiplicative p-degree, odd prime square
                    classes away from p).  Degrees divisible by p carry kernel
                    data, so rational input must be prime to p.

Contexts are immutable slotted records; class-group data is computed when
an answer needs it and kept per discriminant by `quadforms`'s lru caches.
A CM class is (mask, inert primes), multiplied by XOR; a form is looked up
only to render it.  A CM context checks its discriminant by factoring
alone, and mask 0 renders as the principal form, so a degree class with no
split or ramified odd-exponent prime is answered without the class group.
The genus characters of disc are characters mod |disc|, so a prime's
splitting and its mask depend only on p mod |disc| (Cox, *Primes of the
Form x^2 + ny^2*, Sec. 3.B and Thm. 6.1); `_prime_mask` is keyed by that
residue and computes each class's mask once, from one prime of the class.

Each kind defines the whole interface that `IsogenyContext`'s docstring
lists (the base class defines none of it) and states its group law in
closed form, so a power is one step: `k*[...]` costs about one product
however many digits k has.
A kind's `structure()` is a `GroupStructure`: a free rank and a tuple of
(modulus, count, label) triples.

A context file is the JSON object `to_json` writes and `make_context` reads:
`case` names the kind, and the other keys are its class's `_fields`, all
integers, e.g. {"case": "ordinary_cm", "disc": -20, "p": 3}; a context
built in Python meets the same check of its fields as one read from a file.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._record import Record, set_field
from .arith import FactoredRational, exponent_table, is_prime, printable_int
from .errors import ContextError, ContextMismatchError, KernelInputError
from .quadforms import (
    QuadForm,
    SquareClasses,
    _check_discriminant,
    _principal,
    kronecker,
    prime_class,
    square_classes,
)

DegreeLike = FactoredRational | Fraction | int


class GroupStructure(Record):
    """Z^free_rank (+) the `factors`, each a triple (modulus, count, label):
    `count` copies of Z/modulus, or one per prime of a family when `count`
    is None."""

    __slots__ = _fields = ("free_rank", "factors", "note")
    free_rank: int
    factors: tuple[tuple[int, int | None, str], ...]
    note: str | None

    def __init__(
        self, free_rank: int, factors: tuple[tuple[int, int | None, str], ...], note: str | None = None
    ) -> None:
        set_field(self, "free_rank", free_rank)
        set_field(self, "factors", factors)
        set_field(self, "note", note)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank
        for modulus, count, label in self.factors:
            if count is None:
                parts.append(f"Z/{modulus} {label}")
            else:
                group = f"Z/{modulus}" if count == 1 else f"(Z/{modulus})^{count}"
                parts.append(f"{group} ({label})")
        text = " (+) ".join(parts) if parts else "trivial"
        if self.note:
            text += f" [{self.note}]"
        return text

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "factors": [{"modulus": m, "count": k, "label": label} for m, k, label in self.factors],
            "note": self.note,
            "description": self.describe(),
        }


class DegreeClass(Record):
    """Canonical representative of an isogeny degree in a context's group."""

    __slots__ = _fields = ("ctx", "data")
    ctx: IsogenyContext
    data: tuple

    def __init__(self, ctx: IsogenyContext, data: tuple) -> None:
        _set_ctx(self, ctx)
        _set_data(self, data)

    # Classes of one query share their context object, so identity is
    # tested before Record equality.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            ctx = self.ctx
            return (ctx is other.ctx or ctx == other.ctx) and self.data == other.data
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx, self.data))

    def __mul__(self, other: DegreeClass) -> DegreeClass:
        ctx = self.ctx
        if ctx is not other.ctx and ctx != other.ctx:
            raise ContextMismatchError("degree classes from different contexts")
        return DegreeClass(ctx, ctx._mul(self.data, other.data))

    def inverse(self) -> DegreeClass:
        return DegreeClass(self.ctx, self.ctx._pow(self.data, -1))

    def __pow__(self, k: int) -> DegreeClass:
        return DegreeClass(self.ctx, self.ctx._pow(self.data, k))

    @property
    def is_identity(self) -> bool:
        return self.data == self.ctx._identity

    def order(self) -> int | None:
        """Order in the class group; None when infinite."""
        return self.ctx._class_order(self.data)

    def describe(self) -> str:
        return self.ctx._describe_class(self.data)

    def to_json(self) -> dict:
        return {"case": self.ctx.case, **self.ctx._class_json(self.data)}


_set_ctx = DegreeClass.ctx.__set__
_set_data = DegreeClass.data.__set__


class IsogenyContext(Record):
    """Shared surface of the five context kinds.  Each kind is a slotted
    record whose `__init__` takes its fields by name and stores them
    through this class's, and defines the rest of the interface: its group
    law on class data (`_identity`, `_mul`, and `_pow` for any integer k),
    `_degree_data` unless `_reads_primes` is false (it takes the degree's
    sorted (prime, exponent) table, `arith.exponent_table`), `_class_order` (None
    when infinite), `_describe_class`, `_class_json` (the class's JSON
    fields after `case`), `structure` and `describe`."""

    __slots__ = ()
    case: str
    _identity: tuple = ()
    # False for a kind whose every degree class is the identity: its
    # `degree_class` factors nothing, so no degree is too large to answer.
    _reads_primes = True

    def __init__(self, *values: int) -> None:
        # The `_fields` in order, each refused unless an int and not a bool.
        for name, value in zip(self._fields, values):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ContextError(f"field {name} must be an integer")
            set_field(self, name, value)

    def identity(self) -> DegreeClass:
        return DegreeClass(self, self._identity)

    def degree_class(self, q: DegreeLike) -> DegreeClass:
        """Canonical class of a positive rational isogeny degree: an int (not
        a bool), a Fraction, or a FactoredRational, read through its table."""
        if isinstance(q, FactoredRational):
            table = q.exps
        else:
            try:
                if q.numerator <= 0:
                    raise KernelInputError(f"degree must be a positive rational, got {q}")
            except AttributeError:  # no numerator: neither an int nor a Fraction
                raise KernelInputError(f"degree must be a positive rational, got {type(q).__name__}") from None
            if q.__class__ is bool:
                raise KernelInputError("degree must be a positive rational, got bool")
            table = None
        if not self._reads_primes:
            return self.identity()
        return DegreeClass(self, self._degree_data(exponent_table(q) if table is None else table))

    def to_json(self) -> dict:
        """The context file's object: `case`, then `_fields` in order."""
        return {"case": self.case, **dict(zip(self._fields, self._values(self._fields)))}


class EndZ(IsogenyContext):
    """Dimension-g isotypic category with endomorphism ring Z."""

    __slots__ = _fields = ("g",)
    g: int

    case = "end_z"

    def __init__(self, g: int) -> None:
        super().__init__(g)
        if g < 1:
            raise ContextError("dimension must be a positive integer")

    @property
    def modulus(self) -> int:
        return 2 * self.g

    def _degree_data(self, exps: tuple) -> tuple:
        m = self.modulus
        return tuple([(p, e % m) for p, e in exps if e % m])

    def _mul(self, x: tuple, y: tuple) -> tuple:
        m = self.modulus
        acc = dict(x)
        for p, e in y:
            acc[p] = (acc.get(p, 0) + e) % m
        return tuple(sorted((p, e) for p, e in acc.items() if e))

    def _pow(self, x: tuple, k: int) -> tuple:
        m = self.modulus
        return tuple([(p, e * k % m) for p, e in x if e * k % m])

    def _class_order(self, x: tuple) -> int:
        m = self.modulus
        order = 1
        for _, e in x:
            k = m // gcd(e, m)
            order = order * k // gcd(order, k)
        return order

    def _describe_class(self, x: tuple) -> str:
        if not x:
            return "identity"
        body = " * ".join(f"{p}^{e}" for p, e in x)
        return f"exponents mod {self.modulus}: {body}"

    def _class_json(self, x: tuple) -> dict:
        return {"modulus": self.modulus, "exponents": [list(t) for t in x]}

    def structure(self) -> GroupStructure:
        return GroupStructure(0, ((self.modulus, None, "per prime"),))

    def describe(self) -> str:
        return f"dimension {self.g}, integer endomorphisms, characteristic 0"


@lru_cache(maxsize=512)
def _prime_mask(r: int, disc: int) -> int | None:
    """Bounded memo of the coset mask in C/C^2 (None when inert) shared by
    the primes p with p % |disc| == r.

    The genus characters of disc are characters mod |disc|, so whether p
    splits, and the coset of a prime ideal above it in C/C^2, depend only on
    p mod |disc| (Cox, *Primes of the Form x^2 + ny^2*, Sec. 3.B and
    Thm. 6.1): a discriminant misses at most once per residue class.  A
    miss reads one prime of the class: r itself (|disc| when r is 0) if it
    shares a factor with disc, else the least prime p with p % |disc| == r,
    which exists by Dirichlet's theorem.  Its `prime_class` runs in full
    and refuses a bad discriminant, and a raise is not cached."""
    m = -disc
    p = r or m
    if m > 0 and gcd(r, m) == 1:  # else no walk: prime_class refuses disc or p
        while not is_prime(p):
            p += m
    pc = prime_class(p, disc)
    if pc.is_inert:
        return None
    sq = square_classes(disc)
    return sq.mask_of[sq.rep(pc.form)]


def _odd_primes_product(x: tuple, y: tuple) -> tuple:
    """Product of two sorted odd-exponent prime tuples: the primes in one only."""
    return tuple(sorted(set(x) ^ set(y)))


class _WithClassGroup(IsogenyContext):
    """Mixin for contexts whose value group is C/C^2 (+) Z/2 per inert prime.  A class
    is (mask, inert): its coset's mask in `SquareClasses` and its sorted odd inert primes."""

    __slots__ = ()
    disc: int
    _identity = (0, ())

    @property
    def square_classes(self) -> SquareClasses:
        return square_classes(self.disc)

    @property
    def principal(self) -> QuadForm:
        """The mask-0 representative `square_classes.coset_reps[0]`, without the class group."""
        return _principal(self.disc)

    def is_norm(self, q: DegreeLike) -> bool:
        """Whether q is a norm from the CM field (i.e. a trivial degree class)."""
        return self.degree_class(q).is_identity

    def _degree_data(self, exps: tuple) -> tuple:
        mask = 0
        inert = []
        for p, e in exps:
            if e % 2 == 0:  # p^e is a norm: its class is a square, its inert parity even
                continue
            m = _prime_mask(p % -self.disc, self.disc)
            if m is None:
                inert.append(p)
            else:
                mask ^= m
        return (mask, tuple(inert))

    def _mul(self, x: tuple, y: tuple) -> tuple:
        return (x[0] ^ y[0], _odd_primes_product(x[1], y[1]))

    def _pow(self, x: tuple, k: int) -> tuple:
        return x if k % 2 else self._identity  # C/C^2 and the inert parities have exponent 2

    def _class_order(self, x: tuple) -> int:
        return 1 if x == self._identity else 2

    def _coset_rep(self, mask: int) -> QuadForm:
        """The representative form of coset `mask`; mask 0 needs no class group."""
        return self.square_classes.reps[mask] if mask else self.principal

    def _describe_class(self, x: tuple) -> str:
        mask, inert = x
        if x == self._identity:
            return "identity"
        parts = [f"coset {self._coset_rep(mask)}"]
        if inert:
            parts.append("odd inert exponents at " + ", ".join(map(str, inert)))
        return "; ".join(parts)

    def _class_json(self, x: tuple) -> dict:
        return {"coset_rep": list(self._coset_rep(x[0]).triple()), "inert_odd": list(x[1])}

    def structure(self) -> GroupStructure:
        t = self.square_classes.index.bit_length() - 1
        factors = []
        if t > 0:
            factors.append((2, t, "class group mod squares"))
        factors.append((2, None, "per inert prime"))
        return GroupStructure(0, tuple(factors))


class CM(_WithClassGroup):
    """Elliptic curve with CM by the maximal order of disc < 0, char 0."""

    __slots__ = _fields = ("disc",)
    disc: int

    case = "cm"

    def __init__(self, disc: int) -> None:
        super().__init__(disc)
        _check_discriminant(disc)

    def describe(self) -> str:
        return f"elliptic, CM by the maximal order of discriminant {self.disc}, characteristic 0"


class OrdinaryCM(_WithClassGroup):
    """Ordinary elliptic curve over F_p-bar with CM lift of disc; p splits."""

    __slots__ = _fields = ("disc", "p")
    disc: int
    p: int

    case = "ordinary_cm"

    def __init__(self, disc: int, p: int) -> None:
        super().__init__(disc, p)
        _check_discriminant(disc)
        if not is_prime(p):
            raise ContextError(f"{p} is not prime")
        if kronecker(disc, p) != 1:
            raise ContextError(
                f"prime {p} does not split in discriminant {disc}; "
                "not an ordinary reduction"
            )

    def describe(self) -> str:
        return (
            f"elliptic, ordinary, characteristic {self.p}, "
            f"CM by the maximal order of discriminant {self.disc}"
        )


class Supersingular(IsogenyContext):
    """Supersingular elliptic curve over F_p-bar; the class group vanishes."""

    __slots__ = _fields = ("p",)
    p: int

    case = "supersingular"
    _reads_primes = False

    def __init__(self, p: int) -> None:
        super().__init__(p)
        if not is_prime(p):
            raise ContextError(f"{p} is not prime")

    def _mul(self, x: tuple, y: tuple) -> tuple:
        return ()

    def _pow(self, x: tuple, k: int) -> tuple:
        return ()

    def _class_order(self, x: tuple) -> int:
        return 1

    def _describe_class(self, x: tuple) -> str:
        return "identity (trivial group)"

    def _class_json(self, x: tuple) -> dict:
        return {}

    def structure(self) -> GroupStructure:
        return GroupStructure(0, ())

    def describe(self) -> str:
        return f"elliptic, supersingular, characteristic {self.p}"


class CharPEndZ(IsogenyContext):
    """Ordinary elliptic curve over F_p-bar taken with only integer
    endomorphisms; classes track the etale-minus-multiplicative p-degree and
    odd square classes away from p."""

    __slots__ = _fields = ("p",)
    p: int

    case = "char_p_end_z"
    _identity = (0, ())

    def __init__(self, p: int) -> None:
        super().__init__(p)
        if not is_prime(p):
            raise ContextError(f"{p} is not prime")

    def _degree_data(self, exps: tuple) -> tuple:
        if any(r == self.p for r, _ in exps):
            raise KernelInputError("use kernel input for p-part")
        return (0, tuple([r for r, e in exps if e % 2]))

    def _mul(self, x: tuple, y: tuple) -> tuple:
        return (x[0] + y[0], _odd_primes_product(x[1], y[1]))

    def _pow(self, x: tuple, k: int) -> tuple:
        return (x[0] * k, x[1] if k % 2 else ())

    def _class_order(self, x: tuple) -> int | None:
        if x[0] != 0:
            return None
        return 2 if x[1] else 1

    def _describe_class(self, x: tuple) -> str:
        a, primes = x
        if x == self._identity:
            return "identity"
        parts = [f"p-degree {printable_int(a, 'p-degree')}"]
        if primes:
            parts.append("odd exponents at " + ", ".join(map(str, primes)))
        return "; ".join(parts)

    def _class_json(self, x: tuple) -> dict:
        return {"p": self.p, "p_degree": printable_int(x[0], "p-degree"), "odd_primes": list(x[1])}

    def structure(self) -> GroupStructure:
        return GroupStructure(
            1,
            ((2, None, f"per prime != {self.p}"),),
            note="index 2 in Z (+) positive rationals mod squares",
        )

    def describe(self) -> str:
        return f"elliptic, ordinary, characteristic {self.p}, integer endomorphisms"


# The context file format: each kind's `case` and `_fields`.
_CONTEXTS = {kind.case: kind for kind in (EndZ, CM, Supersingular, OrdinaryCM, CharPEndZ)}


def make_context(spec: Mapping) -> IsogenyContext:
    """Build a context from a flat mapping: `case` and its class's `_fields`.

    Unknown cases and unknown or missing fields are rejected; only the five
    supported endomorphism types exist (general number-field centers are out
    of scope).
    """
    if "case" not in spec:
        raise ContextError("missing field: case")
    case = spec["case"]
    if not isinstance(case, str):
        raise ContextError(f"field case must be a string, got {type(case).__name__}")
    if case not in _CONTEXTS:
        raise ContextError(
            f"unknown case {case!r}: supported cases are {sorted(_CONTEXTS)} "
            "(other endomorphism centers are unsupported)"
        )
    cls = _CONTEXTS[case]
    extra = set(spec) - {"case", *cls._fields}
    if extra:
        raise ContextError(f"unknown fields for case {case!r}: {sorted(extra)}")
    for name in cls._fields:
        if name not in spec:
            raise ContextError(f"missing field for case {case!r}: {name}")
    return cls(*[spec[name] for name in cls._fields])
