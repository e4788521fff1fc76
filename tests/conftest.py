"""Helpers shared by the test files."""

import pathlib
import types

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench's `name`.py as a module, compiled from its text, so no
    bytecode is written next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def squarefree(n):
    """Whether no square f^2 > 1 divides n, by trial division alone."""
    f = 2
    while f * f <= abs(n):
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def fundamental_discs(limit):
    """Negative fundamental discriminants d with |d| <= limit, by trial
    division alone, so the list does not depend on the package."""
    out = []
    for d in range(-3, -limit - 1, -1):
        if d % 4 == 1 and squarefree(d):
            out.append(d)
        elif d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4):
            out.append(d)
    return out


def basis(lat):
    """The Hermite basis rows ((a, b), (0, d)) of the lattice (den, a, b, d),
    as `FracLattice.make` takes rows."""
    _, a, b, d = lat
    return (a, b), (0, d)


def contains(lat, other):
    """Whether the lattice `lat` contains `other`, by `member` of other's two
    basis rows: a test apart from the `lattice_index` closed form."""
    den, x, y, z = other
    return lat.member((x, y), den) and lat.member((0, z), den)


def covolume(lat):
    """The covolume a*d/den**2 of (den, a, b, d) as the pair (a*d, den**2)."""
    den, a, _, d = lat
    return a * d, den * den
