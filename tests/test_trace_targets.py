"""perfbench's tracer rebinds package functions by name; a renamed or deleted
target would stop every traced benchmark run.  These tests read
`perfbench/spans.py` (compiled from its text, so no bytecode is written
next to it) and check that each name still resolves the way
`Tracer.install` needs, and that a traced degree_query run still sees the
calls `spans.PREDICTIONS` expects."""

import json
import os
import pathlib
import subprocess
import sys
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


# The worker's order for a traced degree_query run: build the contexts and
# call `structure()` on each, install the tracer, then time the queries.
# `Tracer.install` rebinds package attributes for good, so it runs in a
# fresh interpreter; -B keeps bytecode out of perfbench/.
_DEGREE_QUERY_TRACE = """
import json, sys
import spans, workloads
import k0av

state = [k0av.make_context(spec) for spec in workloads.QUERY_CONTEXTS]
for ctx in state:
    ctx.structure()
tracer = spans.Tracer()
tracer.install()
parse, evaluate = k0av.parse_expression, k0av.eval_expression
for ci, left, right, _ in workloads.make_degree_query(1)["queries"][:400]:
    evaluate(state[ci], parse(left)) == evaluate(state[ci], parse(right))
snap = tracer.snapshot()
print(json.dumps({"misses": spans.prediction_misses("degree_query", snap), "missing": snap["missing"]}))
"""


def test_degree_query_trace_predictions_hold():
    import k0av

    src = os.path.dirname(os.path.dirname(k0av.__file__))
    path = os.pathsep.join(filter(None, (str(SPANS.parent), src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _DEGREE_QUERY_TRACE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["misses"] == []
    assert out["missing"] == []
