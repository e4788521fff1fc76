"""One workload run in a fresh process: set up, run the timed closed loop,
then check the answers outside the timed region.

    python3 perfbench/worker.py WORKLOAD --inputs FILE --seconds S --trace 0|1
    python3 perfbench/worker.py WORKLOAD --setup-only

`src/` must be on PYTHONPATH.  Prints one JSON document on stdout.  Set-up
time runs from just before the package import to the first timed
operation: the import plus, for degree_query, building the contexts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import shutil
import tempfile
import time

import calib
import spans
import workloads

clock_ns = time.perf_counter_ns
# calib.spin samples a set-up process takes just before the package import.
SETUP_SAMPLES = 20


def _short(text: str) -> str:
    return workloads.digest([text])[:16]


def setup(workload: str):
    t0 = time.perf_counter()
    state = None
    if workload == "cli":
        import k0av.cli  # noqa: F401  (what every k0 process imports first)
    else:
        import k0av

        if workload == "degree_query":
            state = [k0av.make_context(spec) for spec in workloads.QUERY_CONTEXTS]
            for ctx in state:
                ctx.structure()  # builds the square classes a context computes lazily
    return time.perf_counter() - t0, state


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _more(i: int, count: int | None, floor: int, over: bool) -> bool:
    """Loop condition: exactly `count` iterations when given, else until the
    time budget is `over` and at least `floor` iterations have run."""
    if count is not None:
        return i < count
    return i < floor or not over


def _rss_mb(field: str = "VmHWM") -> float:
    """This process's own peak (VmHWM) or current (VmRSS) RSS.  Not
    ru_maxrss: there a process started by vfork counts its parent's peak,
    so it would follow run.py."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def run_certify(inputs: dict, seconds: float, count: int | None, state, sampler) -> dict:
    import k0av

    torsion, derive = k0av.TorsionSubgroup, k0av.derive_same_degree
    from_json, validate, k0error = k0av.Derivation.from_json, k0av.validate_derivation, k0av.K0Error
    pairs, floor = inputs["pairs"], inputs["floor"]
    ops, certs = [], []
    # Derive phase: 70% of the budget and at least `floor` certificates.
    # The check phase then re-validates every certificate, which takes
    # about the remaining 30%.
    i = 0
    while _more(i, count, floor, sampler.elapsed() >= 0.7 * seconds):
        n, (a, b, d), (a2, b2, d2) = pairs[i % len(pairs)]
        t0 = clock_ns()
        try:
            der = derive(n, torsion(n, ((a, b), (0, d))), torsion(n, ((a2, b2), (0, d2))))
            text = json.dumps(der.to_json(), separators=(",", ":"))
        except Exception as exc:  # a failed op; the loop goes on
            text = _error(exc)
        ops.append(("derive", clock_ns() - t0))
        sampler.tick()
        certs.append(text)
        i += 1
        if i == floor:
            rss = _rss_mb()
    items = []
    for i, text in enumerate(certs):
        if not text.startswith("{"):
            continue
        items.append((i, None, text))
        if i % workloads.CORRUPT_EVERY == workloads.CORRUPT_EVERY - 1:
            kind = workloads.CORRUPTIONS[(i // workloads.CORRUPT_EVERY) % len(workloads.CORRUPTIONS)]
            items.append((i, kind, json.dumps(workloads.corrupt(json.loads(text), kind))))
    checks = []
    for index, kind, text in items:
        t0 = clock_ns()
        try:
            accepted = bool(validate(from_json(json.loads(text))))
        except k0error:
            accepted = False
        except Exception as exc:
            accepted = _error(exc)
        ops.append(("check", clock_ns() - t0))
        sampler.tick()
        checks.append([index, kind, accepted])
    head = certs[:floor]
    exact_counts = {
        "k0.steps_total": sum(len(json.loads(t)["steps"]) for t in head if t.startswith("{")),
        "k0.cert_bytes_total": sum(len(t.encode()) for t in head),
        "cert_digest": workloads.digest(head),
    }
    return {
        "ops": ops,
        "out": {"certs": certs, "checks": checks},
        "results": {"derive": [_short(t) for t in certs], "check": [_short(str(c[2])) for c in checks]},
        "exact": exact_counts,
        "iterations": len(certs),
        "rss_mb": rss,
        "steps_derived": sum(len(json.loads(t)["steps"]) for t in certs if t.startswith("{")),
    }


def run_degree_query(inputs: dict, seconds: float, count: int | None, state, sampler) -> dict:
    import k0av

    parse, evaluate = k0av.parse_expression, k0av.eval_expression
    queries = inputs["queries"]
    ops, answers, values = [], [], []
    i = 0
    while _more(i, count, inputs["floor"], sampler.elapsed() >= seconds):
        ci, left, right, _ = queries[i % len(queries)]
        ctx = state[ci]
        t0 = clock_ns()
        try:
            x = evaluate(ctx, parse(left))
            y = evaluate(ctx, parse(right))
            answer = x == y
        except Exception as exc:
            x = y = None
            answer = _error(exc)
        ops.append(("query", clock_ns() - t0))
        sampler.tick()
        answers.append(answer)
        values.append((x, y))
        i += 1
        if i == inputs["floor"]:
            rss = _rss_mb()
    results = [
        _short(json.dumps([a, x and x.to_json(), y and y.to_json()], sort_keys=True))
        for a, (x, y) in zip(answers, values)
    ]
    return {"ops": ops, "out": {"answers": answers}, "results": {"query": results}, "iterations": i,
            "rss_mb": rss}


def run_classgroup(inputs: dict, seconds: float, count: int | None, state, sampler) -> dict:
    import k0av

    class_group, square_classes, cm = k0av.class_group, k0av.square_classes, k0av.CM
    discs = inputs["discs"]
    ops, raw = [], []
    i = 0
    while i < len(discs) and _more(i, count, inputs["floor"], sampler.elapsed() >= seconds):
        d = discs[i]
        t0 = clock_ns()
        try:
            res = (class_group(d), square_classes(d), cm(d).structure())
        except Exception as exc:
            res = _error(exc)
        ops.append(("small" if -d <= workloads.SMALL_BAND else "large", clock_ns() - t0))
        sampler.tick()
        raw.append(res)
        i += 1
        if i == inputs["floor"]:
            rss = _rss_mb()
    results = [
        r if isinstance(r, str) else [
            [list(f.triple()) for f in r[0].elements],
            [list(f.triple()) for f in r[1].squares],
            r[2].to_json(),
        ]
        for r in raw
    ]
    return {
        "ops": ops,
        "out": {"results": results},
        "results": {"classgroup": [_short(json.dumps(r, sort_keys=True)) for r in results]},
        "iterations": i,
        "rss_mb": rss,
    }


class Launcher:
    """The lean process that starts each k0 call; see launcher.py."""

    def __init__(self, cwd: str) -> None:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
        self.proc = subprocess.Popen([sys.executable, script], cwd=cwd, env=workloads.src_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, out_path: str, err_path: str) -> tuple[int, int, int, list]:
        """Run argv to completion; (ns, exit code, max RSS in KiB, [the
        time of the calib.START_ARGV process started just before])."""
        req = {"argv": argv, "env": env, "stdout": out_path, "stderr": err_path}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        dt, code, rss, *cal = map(int, self.proc.stdout.readline().split())
        return dt, code, rss, cal

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def run_cli(inputs: dict, seconds: float, count: int | None, traced: bool, tmp: str,
            launcher: Launcher) -> dict:
    calls = inputs["calls"]
    if traced:
        prefix = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")]
    else:
        prefix = [sys.executable, "-m", "k0av.cli"]
    ops, verdicts, results, snaps, cal_ns = [], [], [], [], []
    max_rss = 0
    for name, spec in inputs["files"].items():
        with open(os.path.join(tmp, name), "w") as fh:
            json.dump(spec, fh)
    certs = {}
    out_path, err_path = os.path.join(tmp, "stdout.txt"), os.path.join(tmp, "stderr.txt")
    # Wall-clock seconds: a pass's calls are set by its floor on any host.
    stop = time.perf_counter() + seconds
    i = 0
    while i < len(calls) and _more(i, count, inputs["floor"], time.perf_counter() >= stop):
        call = calls[i]
        if "corrupt" in call:
            source, target, kind = call["corrupt"]
            if source in certs:
                with open(os.path.join(tmp, target), "w") as fh:
                    json.dump(workloads.corrupt(certs[source], kind), fh)
        env = {"PERFBENCH_TRACE_OUT": os.path.join(tmp, f"trace{i}.json")} if traced else {}
        dt, code, rss, cal = launcher.run(prefix + call["argv"], env, out_path, err_path)
        ops.append((call["kind"], dt))
        cal_ns += cal
        max_rss = max(max_rss, rss)
        stdout, stderr = _read(out_path), _read(err_path)
        if call["kind"] == "derive":
            target = os.path.join(tmp, call["expect"]["derive"][3])
            if os.path.exists(target):
                with open(target) as fh:
                    certs[call["expect"]["derive"][3]] = json.load(fh)
        verdicts.append(workloads.check_cli_call(call, code, stdout, stderr, certs))
        results.append(_short(f"{code}\n{stdout}"))
        if traced and os.path.exists(env["PERFBENCH_TRACE_OUT"]):
            with open(env["PERFBENCH_TRACE_OUT"]) as fh:
                snaps.append(json.load(fh))
        i += 1
    failures = [(i, v[0], f"{calls[i]['argv']}: {v[1]}") for i, v in enumerate(verdicts) if v]
    res = {"ops": ops, "failures": failures, "results": {"call": results}, "rss_mb": max_rss / 1024,
           "iterations": len(ops), "cal_ns": cal_ns}
    if traced:
        res["trace"] = spans.merge(snaps)
    return res


def startup_costs(repeats: int = 5) -> dict:
    """Median interpreter start, and import of k0av.cli on top of it (ms)."""
    env = workloads.src_env()
    bare, full = [], []
    for _ in range(repeats):
        for argv, acc in (([sys.executable, "-c", "pass"], bare),
                          ([sys.executable, "-c", "import k0av.cli"], full)):
            t0 = clock_ns()
            subprocess.run(argv, env=env, check=True)
            acc.append((clock_ns() - t0) / 1e6)
    bare.sort()
    full.sort()
    return {"interp_ms": bare[len(bare) // 2], "import_ms": full[len(full) // 2] - bare[len(bare) // 2]}


RUNNERS = {
    "certify": (run_certify, workloads.check_certify),
    "degree_query": (run_degree_query, workloads.check_degree_query),
    "classgroup": (run_classgroup, workloads.check_classgroup),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.MAKERS))
    parser.add_argument("--inputs", help="JSON file made by workloads.MAKERS[WORKLOAD]")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, help="run exactly this many loop iterations")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.setup_only:
        cal = [calib.sample_ns() for _ in range(SETUP_SAMPLES)]
        print(json.dumps({"setup_s": setup(args.workload)[0], "cal_ns": cal}))
        return 0
    if args.workload == "cli":
        # The launcher starts before the inputs are loaded; see launcher.py.
        tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
        launcher = Launcher(tmp)
        try:
            with open(args.inputs) as fh:
                inputs = json.load(fh)
            res = run_cli(inputs, args.seconds, args.count, bool(args.trace), tmp, launcher)
        finally:
            launcher.close()
            shutil.rmtree(tmp, ignore_errors=True)
        if args.trace:
            res["startup"] = startup_costs()
        print(json.dumps(res))
        return 0

    # peak_rss_mb is the peak RSS beyond what the process holds once its
    # inputs are loaded: the package import, set-up and the operations.
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    base = _rss_mb("VmRSS")
    _, state = setup(args.workload)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    run, check = RUNNERS[args.workload]
    sampler = calib.Sampler()
    res = run(inputs, args.seconds, args.count, state, sampler)
    res["cal_ns"] = sampler.samples
    res["rss_mb"] -= base
    if tracer is not None:
        res["trace"] = tracer.snapshot()
    res["failures"] = check(inputs, res.pop("out"))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
