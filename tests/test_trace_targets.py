"""perfbench's tracer rebinds package functions by name; a renamed or deleted
target would stop every traced benchmark run.  These tests read
`perfbench/spans.py` (compiled from its text, so no bytecode is written
next to it) and check that each name still resolves the way
`Tracer.install` needs."""

import pathlib
import types

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


spans = _load_spans()


@pytest.mark.parametrize("metric, module, path, kind", spans.TARGETS, ids=[t[0] for t in spans.TARGETS])
def test_trace_target_resolves(metric, module, path, kind):
    owner, name = spans._resolve(module, path)
    if isinstance(owner, type):
        # install() reads the raw attribute from the class's own namespace.
        assert name in owner.__dict__, f"{metric}: {path} is not defined on {owner.__qualname__}"
    else:
        assert callable(getattr(owner, name, None)), f"{metric}: {module}.{path} is gone"


@pytest.mark.parametrize("prefix, module, attr", spans.CACHES, ids=[c[0] for c in spans.CACHES])
def test_trace_cache_has_cache_info(prefix, module, attr):
    owner, name = spans._resolve(module, attr)
    assert hasattr(getattr(owner, name, None), "cache_info"), f"{prefix}: {module}.{attr} is not an lru cache"
