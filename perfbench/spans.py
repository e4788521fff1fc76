"""Per-layer tracing by rebinding module attributes at run time.

Nothing in the package is edited.  `Tracer.install` replaces every module
attribute (and class attribute, for methods) that binds a traced function
with a wrapper, so calls through any import path are seen.  Wrappers keep a
span stack: a span's self time is its duration minus the time covered by
the spans it caused.  Spans are aggregated in memory as they close and read
out once, when the run ends.

Layer names follow the package's modules: `formcore` (the form kernels as
reached through `_backend`), `arith`, `quadforms`, `contexts`, `kernels`,
`expr` and `k0`.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path, kind)
#   span:      calls, total and self time
#   outermost: as span, but nested calls run inside the outermost span
#   sized:     as span, also sums len(result) into `<prefix>.forms_out`
#   count:     calls only; time stays with the enclosing span
TARGETS = (
    ("formcore.compose_triples", "k0av._backend", "compose_triples", "span"),
    ("formcore.reduce_triple", "k0av._backend", "reduce_triple", "span"),
    ("formcore.reduced_forms_disc", "k0av._backend", "reduced_forms_disc", "sized"),
    ("formcore.kronecker", "k0av._backend", "kronecker", "span"),
    ("arith.factor", "k0av.arith", "_factor_int", "span"),
    ("arith.row_hnf", "k0av.arith", "row_hnf", "span"),
    ("arith.left_kernel", "k0av.arith", "left_kernel", "span"),
    ("arith.is_prime", "k0av.arith", "is_prime", "span"),
    ("quadforms.compose", "k0av.quadforms", "compose", "span"),
    ("quadforms.square_rep", "k0av.quadforms", "SquareClasses.rep", "span"),
    ("quadforms.prime_class", "k0av.quadforms", "prime_class", "span"),
    ("quadforms.class_group", "k0av.quadforms", "class_group", "span"),
    ("quadforms.square_classes", "k0av.quadforms", "square_classes", "span"),
    ("contexts.degree_class", "k0av.contexts", "IsogenyContext.degree_class", "span"),
    ("kernels.parse_kernel_literal", "k0av.kernels", "parse_kernel_literal", "span"),
    ("kernels.kernel_class", "k0av.kernels", "kernel_class", "span"),
    ("expr.parse_expression", "k0av.expr", "parse_expression", "span"),
    ("expr.eval_expression", "k0av.expr", "eval_expression", "outermost"),
    ("k0.derive_same_degree", "k0av.k0", "derive_same_degree", "span"),
    ("k0.validate_derivation", "k0av.k0", "validate_derivation", "span"),
    ("k0.from_json", "k0av.k0", "Derivation.from_json", "span"),
    ("k0.lattice_make", "k0av.k0", "FracLattice.make", "count"),
)

# lru caches read through their public cache_info(): (metric prefix, module, attribute)
CACHES = (
    ("arith.factor", "k0av.arith", "_factor_int"),
    ("quadforms.class_group", "k0av.quadforms", "class_group"),
    ("quadforms.square_classes", "k0av.quadforms", "square_classes"),
)

# Which wrappers must record calls (True) or none (False) during a
# workload's timed operations.  Wrappers not listed are not predicted.
PREDICTIONS = {
    "certify": {
        "arith.row_hnf": True,
        "arith.left_kernel": True,
        "k0.derive_same_degree": True,
        "k0.validate_derivation": True,
        "k0.from_json": True,
        "k0.lattice_make": True,
        "formcore.compose_triples": False,
        "formcore.reduce_triple": False,
        "formcore.reduced_forms_disc": False,
        "formcore.kronecker": False,
        "arith.factor": False,
        "quadforms.compose": False,
        "quadforms.square_rep": False,
        "quadforms.prime_class": False,
        "quadforms.class_group": False,
        "quadforms.square_classes": False,
        "contexts.degree_class": False,
        "kernels.parse_kernel_literal": False,
        "kernels.kernel_class": False,
        "expr.parse_expression": False,
        "expr.eval_expression": False,
    },
    "degree_query": {
        "formcore.compose_triples": True,
        "formcore.reduce_triple": True,
        "formcore.kronecker": True,
        "arith.factor": True,
        "arith.is_prime": True,
        "quadforms.compose": True,
        "quadforms.square_rep": True,
        "quadforms.prime_class": True,
        "contexts.degree_class": True,
        "kernels.parse_kernel_literal": True,
        "kernels.kernel_class": True,
        "expr.parse_expression": True,
        "expr.eval_expression": True,
        "arith.row_hnf": False,
        "arith.left_kernel": False,
        "formcore.reduced_forms_disc": False,
        "k0.derive_same_degree": False,
        "k0.validate_derivation": False,
        "k0.from_json": False,
        "k0.lattice_make": False,
    },
    "classgroup": {
        "formcore.reduced_forms_disc": True,
        "formcore.compose_triples": True,
        "formcore.reduce_triple": True,
        "arith.factor": True,
        "quadforms.compose": True,
        "quadforms.class_group": True,
        "quadforms.square_classes": True,
        "arith.row_hnf": False,
        "arith.left_kernel": False,
        "contexts.degree_class": False,
        "quadforms.square_rep": False,
        "kernels.parse_kernel_literal": False,
        "kernels.kernel_class": False,
        "expr.parse_expression": False,
        "expr.eval_expression": False,
        "k0.derive_same_degree": False,
        "k0.validate_derivation": False,
        "k0.from_json": False,
        "k0.lattice_make": False,
    },
    "cli": {
        "arith.row_hnf": True,
        "k0.derive_same_degree": True,
        "k0.validate_derivation": True,
        "k0.from_json": True,
        "formcore.reduced_forms_disc": True,
        "formcore.compose_triples": True,
        "quadforms.class_group": True,
        "quadforms.square_classes": True,
        "contexts.degree_class": True,
        "kernels.parse_kernel_literal": True,
        "expr.parse_expression": True,
        "expr.eval_expression": True,
    },
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span stack plus per-name aggregates; see the module docstring."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.forms_out: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self.under_derive: Counter = Counter()  # count wrappers inside derive spans
        self._stack: list[list] = []  # [name, child_ns]
        self._depth: Counter = Counter()
        self._caches: dict = {}
        self.missing: list[str] = []

    def _span(self, name: str, fn, kind: str):
        stack, depth = self._stack, self._depth
        calls, total, own = self.calls, self.total_ns, self.self_ns
        edges, forms_out = self.edges, self.forms_out
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if kind == "outermost" and depth[name]:
                return fn(*args, **kwargs)
            frame = [name, 0]
            if stack:
                edges[(stack[-1][0], name)] += 1
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                stack.pop()
                calls[name] += 1
                total[name] += dt
                own[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if kind == "sized":
                forms_out[name] += len(out)
            return out

        return wrapper

    def _wrap(self, name: str, fn, kind: str):
        return self._counter(name, fn) if kind == "count" else self._span(name, fn, kind)

    def _counter(self, name: str, fn):
        calls, depth, under = self.calls, self._depth, self.under_derive

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth["k0.derive_same_degree"]:
                under[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every attribute that holds a traced function.  Targets the
        package no longer has are recorded in `missing` and read as zero."""
        modules = [m for n, m in list(sys.modules.items()) if n == "k0av" or n.startswith("k0av.")]
        for prefix, module, attr in CACHES:
            try:
                owner, name = _resolve(module, attr)
                self._caches[prefix] = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(prefix + ".cache")
        for metric, module, path, kind in TARGETS:
            try:
                owner, name = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(metric)
                continue
            if isinstance(owner, type):
                raw = owner.__dict__[name]
                is_static = isinstance(raw, staticmethod)
                wrapped = self._wrap(metric, raw.__func__ if is_static else raw, kind)
                setattr(owner, name, staticmethod(wrapped) if is_static else wrapped)
                continue
            fn = getattr(owner, name)
            wrapped = self._wrap(metric, fn, kind)
            for mod in modules:
                for attr_name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr_name, wrapped)

    def cache_counts(self) -> dict:
        out = {}
        for prefix, fn in self._caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{prefix}.cache_hits"] = info.hits
            out[f"{prefix}.cache_misses"] = info.misses
            out[f"{prefix}.cache_size"] = info.currsize
            out[f"{prefix}.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def snapshot(self) -> dict:
        """Aggregates as plain data, for sending to the parent process."""
        return {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "total_s": {k: v / 1e9 for k, v in self.total_ns.items()},
            "forms_out": dict(self.forms_out),
            "edges": {f"{a}>{b}": n for (a, b), n in self.edges.items()},
            "under_derive": dict(self.under_derive),
            "caches": self.cache_counts(),
            "missing": self.missing,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several traced processes (one per CLI call)."""
    out: dict = {
        "calls": Counter(), "self_s": Counter(), "total_s": Counter(), "forms_out": Counter(),
        "edges": Counter(), "under_derive": Counter(), "caches": Counter(), "missing": [],
    }
    for snap in snapshots:
        for key in ("calls", "self_s", "total_s", "forms_out", "edges", "under_derive", "caches"):
            out[key].update(snap[key])
        out["missing"] = sorted(set(out["missing"]) | set(snap["missing"]))
    caches = out["caches"]
    for prefix, _, _ in CACHES:
        lookups = caches[f"{prefix}.cache_hits"] + caches[f"{prefix}.cache_misses"]
        caches[f"{prefix}.cache_hit_ratio"] = (
            caches[f"{prefix}.cache_hits"] / lookups if lookups else 0.0
        )
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}


def prediction_misses(workload: str, snap: dict) -> list[str]:
    """Wrappers whose call count contradicts PREDICTIONS; missing targets are skipped."""
    misses = []
    for name, expect_calls in PREDICTIONS[workload].items():
        if name in snap["missing"]:
            continue
        got = snap["calls"].get(name, 0)
        if expect_calls and got == 0:
            misses.append(f"{name}: predicted calls, recorded none")
        elif not expect_calls and got != 0:
            misses.append(f"{name}: predicted no calls, recorded {got}")
    return misses
