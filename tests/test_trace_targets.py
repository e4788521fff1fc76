"""perfbench's tracer rebinds package functions by name; a renamed or deleted
target would stop every traced benchmark run.  These tests read
`perfbench/spans.py` (compiled from its text, so no bytecode is written
next to it) and check that each name still resolves the way
`Tracer.install` needs, and that traced degree_query, certify and cli runs
still see the calls `spans.PREDICTIONS` expects."""

import json
import os
import subprocess
import sys

import pytest

from conftest import PERFBENCH, load_perfbench, squarefree

spans = load_perfbench("spans")


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


# Each traced run follows the worker's order: set up, install the tracer,
# then run the operations and print the misses of the workload's
# predictions.  `Tracer.install` rebinds package attributes for good, so a
# run takes a fresh interpreter; -B keeps bytecode out of perfbench/.
_REPORT = """
snap = tracer.snapshot()
print(json.dumps({"misses": spans.prediction_misses(WORKLOAD, snap), "missing": snap["missing"]}))
"""

# degree_query: build the contexts and call `structure()` on each first.
_DEGREE_QUERY_TRACE = """
import json, sys
import spans, workloads
import k0av

WORKLOAD = "degree_query"
state = [k0av.make_context(spec) for spec in workloads.QUERY_CONTEXTS]
for ctx in state:
    ctx.structure()
tracer = spans.Tracer()
tracer.install()
parse, evaluate = k0av.parse_expression, k0av.eval_expression
for ci, left, right, _ in workloads.make_degree_query(1)["queries"][:400]:
    evaluate(state[ci], parse(left)) == evaluate(state[ci], parse(right))
""" + _REPORT

# certify: derive each pair's certificate, write it out, read it back and
# validate it, as the worker's derive and check phases do.  The first 60
# pairs reach tail level 48 at most, so the first pair at each tail level
# is added: its large nodes must keep certify's predictions too.
_CERTIFY_PAIRS = """
pairs = workloads.make_certify(1)["pairs"]
tail = {}
for pair in pairs:
    if pair[0] in workloads.CERT_TAIL_LEVELS:
        tail.setdefault(pair[0], pair)
assert len(tail) == len(workloads.CERT_TAIL_LEVELS)
pairs = pairs[:60] + list(tail.values())
"""
_CERTIFY_TRACE = """
import json
import spans, workloads
import k0av

WORKLOAD = "certify"
""" + _CERTIFY_PAIRS + """
tracer = spans.Tracer()
tracer.install()
for n, (a, b, d), (a2, b2, d2) in pairs:
    der = k0av.derive_same_degree(
        n, k0av.TorsionSubgroup(n, ((a, b), (0, d))), k0av.TorsionSubgroup(n, ((a2, b2), (0, d2)))
    )
    text = json.dumps(der.to_json())
    assert k0av.validate_derivation(k0av.Derivation.from_json(json.loads(text)))
""" + _REPORT


def _run(argv, **env):
    """Run `python -B argv` with perfbench/ and the package's src/ on the path."""
    import k0av

    src = os.path.dirname(os.path.dirname(k0av.__file__))
    path = os.pathsep.join(filter(None, (str(PERFBENCH), src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-B", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=120,
    )
    assert proc.returncode == 0, (argv, proc.stderr)
    return proc


def _traced(script):
    return json.loads(_run(["-c", script]).stdout)


def test_degree_query_trace_predictions_hold():
    assert _traced(_DEGREE_QUERY_TRACE) == {"misses": [], "missing": []}


def test_certify_trace_predictions_hold(monkeypatch):
    # Certify predicts `arith.left_kernel` calls.  On valid certificates
    # only `k0._link`'s `&` makes them, and only in a link whose order c
    # is not squarefree: a squarefree link's lattices are their own lines.
    from k0av import TorsionSubgroup, derive_same_degree, k0

    orders, link = [], k0._link

    def recorded(base, l1, l2, c, primes):
        orders.append(c)
        return link(base, l1, l2, c, primes)

    monkeypatch.setattr(k0, "_link", recorded)
    scope = {"workloads": load_perfbench("workloads")}
    exec(_CERTIFY_PAIRS, scope)
    for n, (a, b, d), (a2, b2, d2) in scope["pairs"]:
        derive_same_degree(n, TorsionSubgroup(n, ((a, b), (0, d))), TorsionSubgroup(n, ((a2, b2), (0, d2))))
    assert not all(map(squarefree, orders)), "no traced certify link has a non-squarefree order, so none intersects"
    assert _traced(_CERTIFY_TRACE) == {"misses": [], "missing": []}


# cli: one `k0` process per call, each run through perfbench's cli_shim.py,
# which writes its snapshot to PERFBENCH_TRACE_OUT; the worker merges the
# snapshots of a pass with `spans.merge`.  One call per subcommand kind the
# workload times is enough to reach every wrapper its predictions name.
_CLI_CALLS = (
    ["classgroup", "--json", "--disc", "-84"],
    ["structure", "--json", "--ctx", "cm.json"],
    ["dist", "--json", "--ctx", "charp.json", "--kernel", "{mup:1, coprime:12}"],
    ["eval", "--json", "--ctx", "cm.json", "[1; 29]", "--equals", "[1; 1]"],
    ["derive", "--json", "--n", "6", "--c1", "1,0,0,6", "--c2", "6,0,0,1", "--out", "cert.json"],
    ["check", "--json", "--cert", "cert.json"],
)


def test_cli_trace_predictions_hold(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cm.json").write_text(json.dumps({"case": "cm", "disc": -20}))
    (tmp_path / "charp.json").write_text(json.dumps({"case": "char_p_end_z", "p": 5}))
    shim = str(PERFBENCH / "cli_shim.py")
    snaps = []
    for i, argv in enumerate(_CLI_CALLS):
        out = tmp_path / f"trace{i}.json"
        _run([shim, *argv], PERFBENCH_TRACE_OUT=str(out))
        snaps.append(json.loads(out.read_text()))
    snap = spans.merge(snaps)
    assert (spans.prediction_misses("cli", snap), snap["missing"]) == ([], [])
