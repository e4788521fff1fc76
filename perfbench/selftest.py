"""Self-test of the harness at tiny sizes.

    python3 perfbench/selftest.py        (from the repository root)

Runs every workload briefly with tracing off and on, and asserts that every
metric BENCHMARK.json names is emitted with its unit, that the traced run's
call predictions hold and its answers match the untraced run's, and that
the answer checkers turn one wrong answer per workload into failed_frac > 0
and a raise on a valid input into a wrong answer.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

SECONDS = 0.6
SEED = 7


def _failed_frac(failures: list, attempted: int) -> float:
    return len({op for op, _, _ in failures}) / attempted


def wrong_answers_are_caught() -> None:
    """Feed each checker right answers with one wrong one among them, and
    answers where a valid input raised."""
    q = workloads.make_degree_query(SEED)
    answers = [want for _, _, _, want in q["queries"][:50]]
    answers[17] = not answers[17]
    failures = workloads.check_degree_query(q, {"answers": answers})
    assert _failed_frac(failures, 50) > 0 and failures[0][1] == "wrong", failures
    answers[17] = "ZeroDivisionError: x"
    failures = workloads.check_degree_query(q, {"answers": answers})
    assert [f[1] for f in failures] == ["wrong"], failures

    c = workloads.make_certify(SEED)
    n, c1, c2 = c["pairs"][0]
    cert = {"format": "k0-derivation/1", "level": n, "degree": n,
            "c1": workloads.canonical_lattice(n, c1), "c2": workloads.canonical_lattice(n, c1),
            "steps": [{}]}
    failures = workloads.check_certify(c, {"certs": [json.dumps(cert)], "checks": [[0, None, True]]})
    assert _failed_frac(failures, 2) > 0 and failures[0][1] == "wrong", failures
    failures = workloads.check_certify(
        c, {"certs": ["DerivationError: x"], "checks": [[0, "sign_flipped", True]]}
    )
    assert [f[1] for f in failures] == ["wrong", "wrong"], failures
    failures = workloads.check_certify(c, {"certs": [], "checks": [[0, None, "IndexError: x"]]})
    assert [f[1] for f in failures] == ["wrong"], failures

    g = workloads.make_classgroup(SEED)
    d = g["discs"][0]
    structure = workloads.expected_structure(d)
    structure["factors"] = structure["factors"][-1:] + structure["factors"]
    failures = workloads.check_classgroup(g, {"results": [[[[1, 1, 1]], [[1, 1, 1]], structure]]})
    assert _failed_frac(failures, 1) > 0, failures
    failures = workloads.check_classgroup(g, {"results": ["RecursionError: x"]})
    assert [f[1] for f in failures] == ["wrong"], failures

    call = {"kind": "eval", "argv": [], "expect": {"equal": True}}
    verdict = workloads.check_cli_call(call, 1, json.dumps({"equal": False}), "", {})
    assert verdict is not None and verdict[0] == "wrong", verdict
    for expect in ({"equal": True}, {"end_z": [1, "6"]}, {"derive": [6, [1, 0, 6], [6, 0, 1], "c.json"]}):
        call = {"kind": "any", "argv": [], "expect": expect}
        verdict = workloads.check_cli_call(call, 1, "", "Traceback (most recent call last):\n", {})
        assert verdict is not None and verdict[0] == "wrong", (expect, verdict)
    call = {"kind": "error", "argv": [], "expect": {"error": True}}
    verdict = workloads.check_cli_call(call, 1, "", "Traceback (most recent call last):\n", {})
    assert verdict is not None and verdict[0] == "failed", verdict


def metrics_are_emitted() -> None:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    env = workloads.src_env()
    for name in workloads.MAKERS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            res = run.run(name, SEED, SECONDS, trace, env)
            assert res["correct"], (name, trace)
            assert res["attempted"] >= 1
            got = res["metrics"]
            assert set(got) == {m["name"] for m in wanted}, set(got) ^ {m["name"] for m in wanted}
            for m in wanted:
                assert got[m["name"]]["unit"] == m["unit"], m
                assert isinstance(got[m["name"]]["value"], (int, float)), m
            if trace:
                assert got["trace.prediction_misses"]["value"] == 0, name
            else:
                assert all(got[m["name"]]["value"] > 0 for m in wanted), got


def main() -> int:
    if not os.path.isfile(os.path.join("src", "k0av", "__init__.py")):
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    wrong_answers_are_caught()
    metrics_are_emitted()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
