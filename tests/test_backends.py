"""Compiled/pure backend parity and the per-call overflow fallback."""

import os
import subprocess
import sys

import pytest

from k0av import _backend, _formcore
from k0av.quadforms import principal_form

from conftest import fundamental_discs

compiled = pytest.importorskip("k0av._speedups", reason="compiled backend not built")


def test_backend_name():
    assert _backend.backend_name() in ("compiled", "pure")
    assert _backend.BACKEND == _backend.backend_name()


def test_env_override_selects_pure_backend():
    env = dict(os.environ, K0AV_BACKEND="pure")
    out = subprocess.run(
        [sys.executable, "-c", "from k0av import backend_name; print(backend_name())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "pure"


def test_kronecker_agreement():
    for a in range(-60, 61):
        for n in range(-40, 41):
            assert compiled.kronecker(a, n) == _formcore.kronecker(a, n), (a, n)


def test_reduce_agreement():
    for d in fundamental_discs(400):
        for a, b, c in _formcore.reduced_forms_disc(d):
            for k in (1, 2, 5):
                ub, uc = b + 2 * a * k, a * k * k + b * k + c
                assert compiled.reduce_triple(a, ub, uc) == (a, b, c)
                assert _formcore.reduce_triple(a, ub, uc) == (a, b, c)


def test_enumeration_agreement():
    for d in fundamental_discs(600):
        assert compiled.reduced_forms_disc(d) == _formcore.reduced_forms_disc(d), d


def test_compose_agreement():
    for d in fundamental_discs(300):
        forms = _formcore.reduced_forms_disc(d)
        for f in forms:
            for g in forms:
                assert compiled.compose_triples(*f, *g) == _formcore.compose_triples(*f, *g)


def test_overflow_falls_back_to_pure():
    # values past int64 must still give exact answers through the wrappers
    big = 2**70
    assert _backend.kronecker(big + 1, 97) == _formcore.kronecker(big + 1, 97)
    with pytest.raises(OverflowError):
        compiled.kronecker(big, 97)

    a, b, c = principal_form(-20).triple()
    k = 2**40  # unreduced b ~ 2^41 overflows the compiled path
    ub, uc = b + 2 * a * k, a * k * k + b * k + c
    assert _backend.reduce_triple(a, ub, uc) == (a, b, c)
    with pytest.raises(OverflowError):
        compiled.reduce_triple(a, ub, uc)
