"""Immutable value records, written out by hand rather than generated.

`Record` gives a subclass what a frozen dataclass gave it: a
`Name(field=value, ...)` repr, refused assignment, and equality and hashing
over the compared fields computed as a dataclass computes them (the same
class is required, and the hash is `hash` of the field tuple), so set and
dict order is unchanged.  A subclass lists its compared fields in `_fields`
and any trailing fields left out of comparison in `_uncompared`, and its
own `__init__` stores each value with `set_field`.  Three types compared in
inner loops (`QuadForm`, `DegreeClass`, `K0Element`) override
`__eq__`/`__hash__` by hand and store through their slot descriptors.  A
lattice, `arith.FracLattice`, is no Record: it is a tuple of four ints.
"""

# Stores a field past Record.__setattr__, as a frozen dataclass's __init__ did.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def _values(self, names: tuple[str, ...]) -> tuple:
        return tuple([getattr(self, n) for n in names])

    def __eq__(self, other):
        if other is self:  # what the field-tuple comparison gives, without building it
            return True
        if other.__class__ is self.__class__:
            return self._values(self._fields) == other._values(self._fields)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self._fields))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields + self._uncompared)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through __init__: the default protocol restores slots by setattr.
        return self.__class__, self._values(self._fields + self._uncompared)
