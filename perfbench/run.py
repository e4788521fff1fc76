"""k0av benchmark: four seeded workloads, end-to-end metrics with tracing
off, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Workloads: certify, degree_query,
classgroup, cli (see BENCHMARK.json for why each exists).  Every workload
is a closed loop with one client: each operation starts when the previous
one has returned.  Timed loops run in fresh worker processes, so caches and
peak RSS never carry over from input generation or another workload.

With --trace 0 the last line holds the end-to-end metrics:
  setup_s      median over SETUPS fresh processes, spread over the run, of
               the package import plus context construction (input
               generation is not counted)
  ops_per_s    operations over the summed time of all operations
  op_p50_ms    median operation latency
  op_tail_ms   the highest percentile with at least ten samples beyond it
               at 24 s per run: p99, p95 for classgroup, p75 for cli
  peak_rss_mb  median over passes of a worker's peak RSS after its first
               inputs["floor"] operations, less its RSS once its inputs
               were loaded; for cli the largest k0 process's ru_maxrss
Latencies are each operation's fastest of several passes (see PASSES).
Every end-to-end time is read at the reference speed of calib.py, that is,
multiplied by calib.REF_NS over the time of calib.spin, a fixed piece of
pure-Python work sampled between the operations of the same pass, at the
calib.QUANTILE of the pass's samples; then each operation's fastest pass is
taken.  For cli, calib.START_ARGV's process, started before each call,
takes the place of calib.spin (and calib.START_REF_NS of calib.REF_NS).  A
set-up is one sample at its process's usual speed, so it is scaled by the
median of the calib.spin samples its process takes just before it.  The
shared host's speed moves the reference and the operations alike, a change
to the program only the operations.  The unscaled figures are printed
above the result line.
With --trace 1, TRACE_PASSES untraced passes alternate with as many traced
ones; the first is time-bounded at S / (2 * TRACE_PASSES) and the others
repeat its operations.  The last line holds the per-layer metrics.

Every input is valid except the cli workload's refused inputs.  A wrong
answer, or a raise, traceback or unexpected exit code on a valid input,
makes `correct` false, as do passes (traced or not) that answer differently
and, with --trace 1, a wrapper whose call count contradicts its prediction
(spans.PREDICTIONS).  `failed` counts the operations with a wrong answer
and the refused cli inputs that break the documented exit-code contract
(0 success, 1 negative answer, 2 error with an `error:` line); the latter
leave `correct` true.  Answers are checked outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import calib
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# The timed loop runs in PASSES fresh workers: the first is time-bounded (in
# seconds at the reference speed, see calib.py, except for cli), the others
# repeat exactly its operations, and each operation's latency is its
# fastest pass.  On a shared 2-CPU host the speed changes from one fraction
# of a second to the next as well as in phases (see calib.py); the fastest
# of several passes removes the first.  degree_query, with the shortest
# operations, spread 0.07 / 0.08 / 0.11 (ops_per_s / p50 / p99, IQR over
# median, 5 seeds) with 8 passes and 0.05 / 0.05 / 0.06 with 12.  A cli
# pass makes at least its floor of 40 calls and as many reference processes
# (see calib.py), 10 to 14 s, so cli has fewer passes.  Set-ups are spread
# evenly between the passes.
PASSES = {"certify": 8, "degree_query": 12, "classgroup": 8, "cli": 3}
TRACE_PASSES = 3
# setup_s is the median of this many fresh processes.  One set-up, mostly
# the package import, moved by 15% (IQR over median) between processes:
# with the host's phases of seconds, the fastest of 10 moved by 28% between
# runs, where the median of 16 is far steadier.
SETUPS = 16
# Highest percentile with at least ten samples beyond it at 24 s per run.
TAIL = {"certify": 99, "degree_query": 99, "classgroup": 95, "cli": 75}
# What each workload's operation kinds are called in the summary table.
KIND_LABELS = {
    "derive": "derive", "check": "check", "query": "query",
    "small": "classgroup |d|<=1e4", "large": "classgroup |d|~1e6",
}
CLI_KINDS = ("dist", "eval", "classgroup", "structure", "derive", "check", "error")


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def worker(workload: str, env: dict, inputs: str | None = None, seconds: float = 0,
           count: int | None = None, trace: bool = False) -> dict:
    """Run worker.py; `inputs` is the path of the inputs file, None for a set-up."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload]
    if inputs is None:
        argv.append("--setup-only")
    else:
        argv += ["--inputs", inputs, "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
        if count is not None:
            argv += ["--count", str(count)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def fastest(passes: list[dict]) -> list:
    """Per-operation minimum latency over passes that ran the same operations."""
    first = passes[0]["ops"]
    for other in passes[1:]:
        if [k for k, _ in other["ops"]] != [k for k, _ in first]:
            raise RuntimeError("passes ran different operations")
    return [(kind, min(p["ops"][i][1] for p in passes)) for i, (kind, _) in enumerate(first)]


def speed_scale(workload: str, samples: list[int]) -> float:
    return calib.scale(samples, calib.START_REF_NS if workload == "cli" else calib.REF_NS)


def scaled_fastest(workload: str, passes: list[dict]) -> list:
    """fastest(passes), each pass read at the reference speed."""
    return fastest([
        {"ops": [(kind, ns * speed_scale(workload, p["cal_ns"])) for kind, ns in p["ops"]]}
        for p in passes
    ])


def op_stats(ops: list) -> dict:
    ms = [ns / 1e6 for _, ns in ops]
    return {"n": len(ms), "per_s": 1e3 * len(ms) / sum(ms), "ms": ms}


def end_to_end(workload: str, ops: list, rss: list[float], setup_s: float) -> dict:
    st = op_stats(ops)
    return {
        "setup_s": setup_s,
        "ops_per_s": st["per_s"],
        "op_p50_ms": percentile(st["ms"], 50),
        "op_tail_ms": percentile(st["ms"], TAIL[workload]),
        "peak_rss_mb": statistics.median(rss),
    }


def _by_kind(ops: list) -> dict:
    kinds: dict = {}
    for kind, ns in ops:
        kinds.setdefault(kind, []).append((kind, ns))
    return kinds


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Counts and self times from the first traced pass; latencies and
    overhead_frac from the fastest of all passes of each kind, each read at
    the reference speed."""
    plain_ops = scaled_fastest(workload, plain)
    overhead = 1 - op_stats(scaled_fastest(workload, traced))["per_s"] / op_stats(plain_ops)["per_s"]
    plain, traced = plain[0], traced[0]
    snap = traced["trace"]
    calls, own = snap["calls"], snap["self_s"]
    m: dict = {}
    for name, _, _, kind in spans.TARGETS:
        m[f"{name}.calls"] = calls.get(name, 0)
        if kind != "count":
            m[f"{name}.self_s"] = own.get(name, 0.0)
    m["formcore.reduced_forms_disc.forms_out"] = snap["forms_out"].get("formcore.reduced_forms_disc", 0)
    for prefix, _, _ in spans.CACHES:
        for field in ("cache_hit_ratio", "cache_size", "cache_hits", "cache_misses"):
            m[f"{prefix}.{field}"] = snap["caches"].get(f"{prefix}.{field}", 0)
    reps = calls.get("quadforms.square_rep", 0)
    m["quadforms.square_rep.compose_per_call"] = (
        snap["edges"].get("quadforms.square_rep>quadforms.compose", 0) / reps if reps else 0.0
    )
    steps = traced.get("steps_derived", 0)
    m["k0.lattice_ops_per_step"] = snap["under_derive"].get("k0.lattice_make", 0) / steps if steps else 0.0
    exact = plain.get("exact", {})
    m["k0.steps_total"] = exact.get("k0.steps_total", 0)
    m["k0.cert_bytes_total"] = exact.get("k0.cert_bytes_total", 0)
    startup = traced.get("startup", {})
    m["cli.interp_ms"] = startup.get("interp_ms", 0.0)
    m["cli.import_ms"] = startup.get("import_ms", 0.0)
    kinds = _by_kind(plain_ops) if workload == "cli" else {}
    for kind in CLI_KINDS:
        ms = [ns / 1e6 for _, ns in kinds.get(kind, [])]
        m[f"cli.{kind}_p50_ms"] = statistics.median(ms) if ms else 0.0
    m["trace.overhead_frac"] = overhead
    misses = spans.prediction_misses(workload, snap)
    m["trace.prediction_misses"] = len(misses)
    return m, misses


def metric_units() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(workload: str, ops: list) -> None:
    """Throughput and latency overall and by operation kind, with sample counts."""
    groups = [("all operations", ops)] + [
        (f"cli {kind}" if workload == "cli" else KIND_LABELS[kind], kind_ops)
        for kind, kind_ops in sorted(_by_kind(ops).items())
    ]
    for label, ops in groups:
        st = op_stats(ops)
        tail = TAIL[workload]
        print(
            f"  {label:<24} {st['per_s']:10.2f}/s  p50 {percentile(st['ms'], 50):9.3f} ms"
            f"  p{tail} {percentile(st['ms'], tail):9.3f} ms  (n={st['n']},"
            f" {int(st['n'] * (100 - tail) / 100)} beyond p{tail})"
        )


def run(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    inputs = workloads.MAKERS[workload](seed)
    # Workers read their inputs from a file: read from a pipe, the buffers'
    # growth, and with it peak RSS, would follow the writer's timing.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as tmp:
        path = os.path.join(tmp, "inputs.json")
        with open(path, "w") as fh:
            json.dump(inputs, fh)
        return _run(workload, inputs, path, seconds, trace, env)


def _run(workload: str, inputs: dict, path: str, seconds: float, trace: bool, env: dict) -> dict:
    messages = []
    if not trace:
        setups, runs = [], []
        for k in range(PASSES[workload]):
            n = SETUPS // PASSES[workload] + (k < SETUPS % PASSES[workload])
            setups += [worker(workload, env) for _ in range(n)]
            count = runs[0]["iterations"] if runs else None
            runs.append(worker(workload, env, path, seconds / PASSES[workload], count))
        raw = fastest(runs)
        ops = scaled_fastest(workload, runs)
        rss = [r["rss_mb"] for r in runs]
        setup_s = statistics.median(
            s["setup_s"] * calib.REF_NS / statistics.median(s["cal_ns"]) for s in setups
        )
        metrics = end_to_end(workload, ops, rss, setup_s)
        unscaled = end_to_end(workload, raw, rss, statistics.median(s["setup_s"] for s in setups))
        print(f"[{workload}] setup_s samples: " + ", ".join(f"{s['setup_s']:.4f}" for s in setups))
        print(f"[{workload}] unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in unscaled.items())
              + "; pass scales " + ", ".join(f"{speed_scale(workload, r['cal_ns']):.3f}" for r in runs))
    else:
        # Traced passes repeat the first untraced pass's operations.
        plain, traced = [], []
        for _ in range(TRACE_PASSES):
            count = plain[0]["iterations"] if plain else None
            plain.append(worker(workload, env, path, seconds / (2 * TRACE_PASSES), count))
            traced.append(worker(workload, env, path, 0, plain[0]["iterations"], trace=True))
        metrics, misses = per_layer(workload, plain, traced)
        runs = plain + traced
        ops = scaled_fastest(workload, plain)
        messages += [f"prediction miss: {m}" for m in misses]
    for r in runs[1:]:
        if r["results"] != runs[0]["results"]:
            messages.append("answers differ between passes" + (" (traced vs untraced)" if trace else ""))
    attempted = sum(len(r["ops"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    failed = sum(len({op for op, _, _ in r["failures"]}) for r in runs)
    wrong = [f for f in failures if f[1] == "wrong"]
    for _, kind, why in failures[:20]:
        messages.append(f"{kind}: {why}")
    summary(workload, ops)
    exact = runs[0].get("exact")
    if exact:
        print(f"[{workload}] exact over the first {inputs['floor']} certificates: "
              + ", ".join(f"{k}={v}" for k, v in exact.items()))
    print(f"[{workload}] failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for msg in messages:
        print(f"[{workload}] {msg}")
    correct = not wrong and not any(m.startswith(("answers differ", "prediction miss")) for m in messages)
    units = metric_units()
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def environment(seed: int, env: dict) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import k0av; print(k0av.backend_name())"],
        env=env, capture_output=True, text=True, check=True,
    )
    return {
        "python": platform.python_version(),
        "backend": probe.stdout.strip(),
        "K0AV_BACKEND": os.environ.get("K0AV_BACKEND"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "k0av", "__init__.py")):
        print("error: run from a k0av checkout (src/k0av not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    env = workloads.src_env()
    print("env " + json.dumps(environment(args.seed, env)))
    names = sorted(workloads.MAKERS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run(name, args.seed, args.seconds, bool(args.trace), env)
        if len(names) > 1:
            print(f"[{name}] " + json.dumps(results[name]))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
