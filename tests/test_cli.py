"""End-to-end CLI behaviour: output shapes and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k0av
from k0av.cli import MAX_SELFTEST_DISC, MAX_SELFTEST_LEVEL, MIN_SELFTEST_DISC, MIN_SELFTEST_LEVEL, main
from k0av.quadforms import MAX_CLASS_GROUP_DISC


@pytest.fixture
def ctx_file(tmp_path):
    def write(data, name="ctx.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classgroup_human(capsys):
    code, out, _ = run(capsys, ["classgroup", "--disc", "-20"])
    assert code == 0
    assert "h = 2" in out
    assert "(1, 0, 5)" in out and "(2, 2, 3)" in out


def test_classgroup_json(capsys):
    code, out, _ = run(capsys, ["classgroup", "--disc", "-23", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["h"] == 3
    assert data["forms"] == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]
    # h odd: every class is a square
    assert data["index"] == 1
    assert sorted(data["square_subgroup"]) == sorted(data["forms"])


def test_classgroup_bad_disc(capsys):
    code, _, err = run(capsys, ["classgroup", "--disc", "-13"])
    assert code == 2
    assert "error:" in err


def test_structure(capsys, ctx_file):
    path = ctx_file({"case": "end_z", "g": 2})
    code, out, _ = run(capsys, ["structure", "--ctx", path])
    assert code == 0
    assert out.strip() == "dimension 2, integer endomorphisms, characteristic 0: Z/4 per prime"

    code, out, _ = run(capsys, ["structure", "--ctx", path, "--json"])
    data = json.loads(out)
    assert data["context"] == {"case": "end_z", "g": 2}
    assert data["structure"]["factors"] == [{"modulus": 4, "count": None, "label": "per prime"}]


def test_dist_degree(capsys, ctx_file):
    path = ctx_file({"case": "cm", "disc": -20})
    code, out, _ = run(capsys, ["dist", "--ctx", path, "--degree", "3"])
    assert code == 0
    assert out.strip() == "coset (2, 2, 3)"

    code, out, _ = run(capsys, ["dist", "--ctx", path, "--degree", "3/7", "--json"])
    data = json.loads(out)
    assert data["class"] == {"case": "cm", "coset_rep": [1, 0, 5], "inert_odd": []}


def test_dist_supersingular_degree_is_not_factored(capsys, ctx_file):
    # 1000000000039 * 1000000000061: two primes past rho's budget, in a
    # context whose every degree class is the identity.
    path = ctx_file({"case": "supersingular", "p": 5})
    code, out, _ = run(capsys, ["dist", "--ctx", path, "--degree", "1000000000100000000002379"])
    assert code == 0
    assert "identity" in out


def test_dist_kernel(capsys, ctx_file):
    path = ctx_file({"case": "char_p_end_z", "p": 5})
    code, out, _ = run(capsys, ["dist", "--ctx", path, "--kernel", "{mup:1, coprime:12}"])
    assert code == 0
    assert out.strip() == "p-degree -1; odd exponents at 3"


def test_dist_kernel_requires_char_p(capsys, ctx_file):
    path = ctx_file({"case": "end_z", "g": 1})
    code, _, err = run(capsys, ["dist", "--ctx", path, "--kernel", "{zp:1}"])
    assert code == 2
    assert "characteristic-p" in err


def test_kernel_literal_is_read_before_the_context_decides(capsys, ctx_file):
    # k0_class alone decides which contexts take kernels, so a malformed
    # literal is named first, and ordinary_cm refuses even a literal whose
    # coprime part involves p as a context error.
    path = ctx_file({"case": "end_z", "g": 1})
    code, _, err = run(capsys, ["dist", "--ctx", path, "--kernel", "{zp:%}"])
    assert code == 2 and err.startswith("error: bad kernel '{zp:%}'")
    path = ctx_file({"case": "ordinary_cm", "disc": -20, "p": 3})
    for argv in (["dist", "--ctx", path, "--kernel", "{coprime:3}"], ["eval", "--ctx", path, "[1; {coprime:3}]"]):
        code, _, err = run(capsys, argv)
        assert code == 2 and "requires a characteristic-p context" in err, argv


def test_dist_p_part_needs_kernel(capsys, ctx_file):
    path = ctx_file({"case": "char_p_end_z", "p": 5})
    code, _, err = run(capsys, ["dist", "--ctx", path, "--degree", "10"])
    assert code == 2
    assert "use kernel input for p-part" in err


def test_dist_bad_degree(capsys, ctx_file):
    path = ctx_file({"case": "end_z", "g": 1})
    code, _, err = run(capsys, ["dist", "--ctx", path, "--degree", "3/x"])
    assert code == 2
    assert "bad degree" in err


def test_dist_degree_follows_rational_rule(capsys, ctx_file):
    path = ctx_file({"case": "end_z", "g": 1})
    for degree in ("1.5", "1e3", "3/", "/4", "3/4/5", "+3", "0x10"):
        code, _, err = run(capsys, ["dist", "--ctx", path, "--degree", degree])
        assert code == 2, degree
        assert err.startswith("error:") and "bad degree" in err, degree
    code, out, _ = run(capsys, ["dist", "--ctx", path, "--degree", " 6 / 4 "])
    assert code == 0 and out.strip() == "exponents mod 2: 2^1 * 3^1"


def test_dist_nonpositive_degree(capsys, ctx_file):
    path = ctx_file({"case": "end_z", "g": 1})
    for degree in ("0", "-3"):
        code, _, err = run(capsys, ["dist", "--ctx", path, "--degree", degree])
        assert code == 2
        assert err.startswith("error:") and "positive" in err


def test_refusal_echo_is_capped(capsys, ctx_file):
    path = ctx_file({"case": "end_z", "g": 1})
    for degree in ("7" * 4400, "3 " + "7" * 4400, "3/" + "x" * 4400):
        code, _, err = run(capsys, ["dist", "--ctx", path, "--degree", degree])
        assert code == 2
        assert err.startswith("error: bad degree '" + degree[:40] + "'...")
        assert f"({len(degree)} characters)" in err and len(err) < 400, err[:400]
    char_p = ctx_file({"case": "char_p_end_z", "p": 5}, "char_p.json")
    name = "a" * 5000
    for argv in (["dist", "--ctx", char_p, "--kernel", f"{{{name}:1}}"], ["eval", "--ctx", char_p, f"[1; {{{name}:1}}]"]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "unknown kernel field 'aaaa" in err and "(5000 characters)" in err and len(err) < 400, err[:400]


def test_eval_equal_and_unequal(capsys, ctx_file):
    path = ctx_file({"case": "end_z", "g": 2})
    code, out, _ = run(
        capsys,
        ["eval", "--ctx", path, "[1; 3] + dual([1; 3])", "--equals", "[2; 1]"],
    )
    assert code == 0
    assert " = " in out

    code, out, _ = run(capsys, ["eval", "--ctx", path, "[1; 3]", "--equals", "dual([1; 3])"])
    assert code == 1
    assert " != " in out


def test_eval_json_value(capsys, ctx_file):
    path = ctx_file({"case": "supersingular", "p": 7})
    code, out, _ = run(capsys, ["eval", "--ctx", path, "[2; 49] - [1; 6]", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["value"]["n"] == 1
    assert data["value"]["degree_class"]["case"] == "supersingular"


def test_eval_parse_error(capsys, ctx_file):
    path = ctx_file({"case": "end_z", "g": 1})
    code, _, err = run(capsys, ["eval", "--ctx", path, "[1; oops]"])
    assert code == 2
    assert "position" in err


def test_eval_degrees_with_large_prime_factors(capsys, ctx_file):
    # A cut "a/b" literal joins two 10-digit numbers; trial division never
    # finished on 1000000007 * 1000000009.
    path = ctx_file({"case": "end_z", "g": 2})
    code, out, _ = run(capsys, ["eval", "--ctx", path, "[1; 1000000016000000063]"])
    assert code == 0
    assert "1000000007" in out and "1000000009" in out
    semiprime = (10**19 + 51) * (10**19 + 169)
    code, _, err = run(capsys, ["eval", "--ctx", path, f"[1; {semiprime}]"])
    assert code == 2
    assert "error:" in err and "Pollard-rho steps" in err


def test_context_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["structure", "--ctx", str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read context file" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["structure", "--ctx", str(bad)])
    assert code == 2
    assert "not valid JSON" in err

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    code, _, err = run(capsys, ["structure", "--ctx", str(arr)])
    assert code == 2
    assert "JSON object" in err


def test_derive_check_round_trip(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        ["derive", "--n", "6", "--c1", "1,0,0,6", "--c2", "6,0,0,1", "--out", str(cert)],
    )
    assert code == 0
    assert "wrote certificate" in out

    code, out, _ = run(capsys, ["check", "--cert", str(cert)])
    assert code == 0
    assert "certificate valid" in out

    data = json.loads(cert.read_text())
    data["steps"][0]["sign"] *= -1
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["check", "--cert", str(cert)])
    assert code == 1
    assert "INVALID" in out


def test_derive_stdout_is_certificate(capsys):
    code, out, _ = run(capsys, ["derive", "--n", "2", "--c1", "1,0,0,2", "--c2", "2,0,0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["format"] == "k0-derivation/1"
    assert data["degree"] == 2


def test_derive_json_summary(capsys, tmp_path):
    cert = tmp_path / "c.json"
    code, out, _ = run(
        capsys,
        ["derive", "--n", "4", "--c1", "1,0,0,4", "--c2", "2,1,0,2", "--out", str(cert), "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["degree"] == 4


def test_derive_input_errors(capsys):
    code, _, err = run(capsys, ["derive", "--n", "4", "--c1", "1,0,0", "--c2", "1,0,0,4"])
    assert code == 2
    assert "4 integers" in err

    code, _, err = run(capsys, ["derive", "--n", "4", "--c1", "1,0,0,x", "--c2", "1,0,0,4"])
    assert code == 2

    # not in Hermite form
    code, _, err = run(capsys, ["derive", "--n", "4", "--c1", "0,1,4,0", "--c2", "1,0,0,4"])
    assert code == 2

    # orders differ
    code, _, err = run(capsys, ["derive", "--n", "4", "--c1", "1,0,0,4", "--c2", "4,0,0,4"])
    assert code == 2
    assert "orders differ" in err


@pytest.mark.parametrize("basis", ["1 0 0 6", "1, 0, 0, 6", "1,0 0,6"])
def test_derive_basis_separators(capsys, basis):
    # Entries are separated by whitespace or by at most one comma.
    argv = ["derive", "--n", "6", "--c2", "6,0,0,1", "--c1"]
    assert run(capsys, argv + [basis]) == run(capsys, argv + ["1,0,0,6"])


_NOT_DIGITS = "bad integer literal {!r} (expected ASCII digits)"


@pytest.mark.parametrize(
    "basis, message",
    [
        # An empty entry is refused at the comma that stands in its place.
        ("1,,0,0,6", "bad subgroup basis '1,,0,0,6': at position 2: " + _NOT_DIGITS.format(",")),
        (",1,0,0,6", "bad subgroup basis ',1,0,0,6': at position 0: " + _NOT_DIGITS.format(",")),
        ("1,0,0,6,", "bad subgroup basis '1,0,0,6,': at position 7: " + _NOT_DIGITS.format(",")),
        (",", "bad subgroup basis ',': at position 0: " + _NOT_DIGITS.format(",")),
        ("", "subgroup basis needs 4 integers (row-major), got ''"),
        ("1,0,0", "subgroup basis needs 4 integers (row-major), got '1,0,0'"),
        ("1;0;0;6", "bad subgroup basis '1;0;0;6': at position 1: " + _NOT_DIGITS.format(";")),
        (
            "\u0661,0,0,2",
            "bad subgroup basis '\u0661,0,0,2': at position 0: unexpected character '\u0661' (expected expression syntax)",
        ),
    ],
    ids=["double-comma", "leading-comma", "trailing-comma", "lone-comma", "empty", "three", "semicolons", "arabic-indic"],
)
def test_derive_basis_refusals(capsys, basis, message):
    code, out, err = run(capsys, ["derive", "--n", "6", "--c1", basis, "--c2", "6,0,0,1"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_derive_unwritable_out(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run(
        capsys, ["derive", "--n", "2", "--c1", "1,0,0,2", "--c2", "2,0,0,1", "--out", str(out)]
    )
    assert code == 2
    assert err.startswith("error: cannot write certificate")
    assert stdout == ""


def test_check_malformed_certificate(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"format": "nope"}))
    code, _, err = run(capsys, ["check", "--cert", str(cert)])
    assert code == 2
    assert "k0-derivation/1" in err

    cert.write_text("{oops")
    code, _, err = run(capsys, ["check", "--cert", str(cert)])
    assert code == 2

    # A `steps` that is not a list, or a step that is not an object, is
    # named, not reported through a Python-internal message.
    good = {"format": "k0-derivation/1", "level": 1,
            "c1": {"den": 1, "basis": [[1, 0], [0, 1]]}, "c2": {"den": 1, "basis": [[1, 0], [0, 1]]}}
    for steps, named in (({"a": 1}, "steps must be a list"), (5, "steps must be a list"),
                         ("ab", "steps must be a list"), ([5], "step 0 must be an object")):
        cert.write_text(json.dumps(dict(good, steps=steps)))
        code, _, err = run(capsys, ["check", "--cert", str(cert)])
        assert code == 2, steps
        assert err.startswith("error: malformed certificate: ") and named in err, (steps, err)
    cert.write_text(json.dumps(dict(good, steps=[])))
    assert run(capsys, ["check", "--cert", str(cert)])[0] == 0


def _corrupt(cert, kind):
    """The three corruptions of the benchmark's certify workload, a wrong
    stored sum, and a sub1 that no longer contains its base (its stated
    orders dropped, so only the lattice checks can see it)."""
    bad = json.loads(json.dumps(cert))
    steps = bad["steps"]
    if kind == "sign_flipped":
        steps[0]["sign"] = -steps[0]["sign"]
    elif kind == "step_dropped":
        del steps[len(steps) // 2]
    elif kind == "c1_doubled":
        bad["c1"]["basis"][0][0] *= 2
    elif kind == "sum_replaced":
        steps[-1]["sum"] = steps[-1]["sub1"]
    else:
        steps[0]["sub1"]["basis"][0][0] *= 2
        del steps[0]["orders"]
    return bad


# SHA-256 of the `failures` lists `k0 check --json` prints, one JSON line
# per corrupted certificate; the failure lists are part of the check
# contract.  FAILURES_SHA256 is taken over the lists with the goals' Z^2
# lines removed, and FAILURES_WITH_Z2_SHA256 over the full lists.
FAILURES_SHA256 = "2394e94cead991384144f2eddfec59332f293793c3e320ad06c695021d0a52cc"
FAILURES_WITH_Z2_SHA256 = "f0dca105008bf6c21faa36eb6f60155f4d0b04fd262f32596f02286af9186d8d"
Z2_FAILURES = ("c1 does not contain Z^2", "c2 does not contain Z^2")


def test_check_failure_lists_pinned(capsys, tmp_path):
    from k0av import oracle
    from k0av.arith import TorsionSubgroup
    from k0av.k0 import derive_same_degree

    certs = []
    for n in range(1, 6):
        by_order = {}
        for s in oracle.exhaustive_subgroups(n):
            by_order.setdefault(s.order, []).append(s)
        for order, group in by_order.items():
            certs += [derive_same_degree(order, c1, c2).to_json() for c1 in group for c2 in group if c1 != c2]
    for n in (12, 24, 30, 210):
        # The cyclic subgroups generated by (1/n, 0), (0, 1/n) and (1/n, 1/n).
        cyclic = [TorsionSubgroup(n, basis) for basis in (((1, 0), (0, n)), ((n, 0), (0, 1)), ((1, 1), (0, n)))]
        certs += [derive_same_degree(n, c1, c2).to_json() for c1, c2 in zip(cyclic, cyclic[1:])]
    path = tmp_path / "bad.json"
    digest, full_digest = hashlib.sha256(), hashlib.sha256()
    for cert in certs:
        for kind in ("sign_flipped", "step_dropped", "c1_doubled", "sum_replaced", "sub1_doubled"):
            path.write_text(json.dumps(_corrupt(cert, kind)))
            code, out, _ = run(capsys, ["check", "--json", "--cert", str(path)])
            assert code == 1, kind
            failures = json.loads(out)["failures"]
            full_digest.update(json.dumps(failures).encode() + b"\n")
            kept = [line for line in failures if line not in Z2_FAILURES]
            digest.update(json.dumps(kept).encode() + b"\n")
    assert len(certs) == 110
    assert digest.hexdigest() == FAILURES_SHA256
    assert full_digest.hexdigest() == FAILURES_WITH_Z2_SHA256


def _goal_only(level, den, basis, degree=None):
    """A certificate with no steps and c1 = c2 = span(basis)/den."""
    lat = {"den": den, "basis": basis}
    cert = {"format": "k0-derivation/1", "level": level, "c1": lat, "c2": lat, "steps": []}
    return cert if degree is None else dict(cert, degree=degree)


# Certificates that are wrong only in their level or goals: the goal
# subgroups of order 3 are not killed by the level 2, no level below 1
# kills anything, and span((2, 0), (0, 1)) does not contain Z^2, so it
# stands for no subgroup.
BAD_LEVEL_CERTS = [
    (_goal_only(2, 3, [[1, 0], [0, 3]], degree=3), ["c1 is not killed by the level 2", "c2 is not killed by the level 2"]),
    (_goal_only(0, 1, [[1, 0], [0, 1]]), ["level 0 is not positive"]),
    (_goal_only(-5, 1, [[1, 0], [0, 1]]), ["level -5 is not positive"]),
    (_goal_only(2, 1, [[2, 0], [0, 1]]), ["c1 does not contain Z^2", "c2 does not contain Z^2"]),
]


def test_check_rejects_bad_level_and_unkilled_goals(capsys, tmp_path):
    path = tmp_path / "cert.json"
    for cert, failures in BAD_LEVEL_CERTS:
        path.write_text(json.dumps(cert))
        code, out, _ = run(capsys, ["check", "--json", "--cert", str(path)])
        assert code == 1
        assert json.loads(out)["failures"] == failures
    # The same goals at a level that kills them are valid.
    path.write_text(json.dumps(_goal_only(3, 3, [[1, 0], [0, 3]], degree=3)))
    assert run(capsys, ["check", "--cert", str(path)])[0] == 0


def test_check_rejects_a_base_without_z2(capsys, tmp_path):
    """One relation over base span((2, 0), (0, 2)), entered with sign +1
    and again with -1, telescopes to [Z^2] - [Z^2]; but the base does not
    contain Z^2, so it stands for no quotient, and both checkers refuse it."""
    from k0av import oracle

    def lat(*basis):
        return {"den": 1, "basis": [list(row) for row in basis]}

    rel = {"base": lat((2, 0), (0, 2)), "sub1": lat((1, 0), (0, 2)), "sub2": lat((2, 0), (0, 1)), "sum": lat((1, 0), (0, 1))}
    cert = dict(_goal_only(1, 1, [[1, 0], [0, 1]]), steps=[dict(rel, sign=1), dict(rel, sign=-1)])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, ["check", "--json", "--cert", str(path)])
    assert code == 1
    assert json.loads(out)["failures"] == ["step 0: base does not contain Z^2", "step 1: base does not contain Z^2"]
    assert "step 0: base does not contain Z^2" in oracle.check_certificate(cert)


def test_certificate_oracle_agrees_with_check():
    """oracle.check_certificate, which shares no code with
    validate_derivation, accepts and rejects the same certificates: those
    of every same-order pair at levels 1..8, each under every corruption
    that applies to it, and the certificates wrong only in their goals."""
    from k0av import oracle
    from k0av.errors import K0Error
    from k0av.k0 import Derivation, derive_same_degree, validate_derivation

    def check(cert):
        try:
            return validate_derivation(Derivation.from_json(cert)).ok
        except K0Error:
            return False

    certs = []
    for n in range(1, 9):
        by_order = {}
        for s in oracle.exhaustive_subgroups(n):
            by_order.setdefault(s.order, []).append(s)
        for order, group in by_order.items():
            certs += [derive_same_degree(order, c1, c2).to_json() for c1 in group for c2 in group]
    assert len(certs) == 744
    verdicts = []
    for cert in certs:
        # A certificate with no steps (c1 = c2) has only c1 to corrupt.
        kinds = ("sign_flipped", "step_dropped", "c1_doubled", "sum_replaced", "sub1_doubled")
        for bad in [cert] + [_corrupt(cert, kind) for kind in (kinds if cert["steps"] else ("c1_doubled",))]:
            verdicts.append((check(bad), not oracle.check_certificate(bad), bad is cert))
    for cert, _ in BAD_LEVEL_CERTS:
        verdicts.append((check(cert), not oracle.check_certificate(cert), False))
    assert all(mine == theirs for mine, theirs, _ in verdicts)
    assert all(ok == original for ok, _, original in verdicts)
    assert len(verdicts) == 4020


def test_check_rejects_stated_numbers(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    run(capsys, ["derive", "--n", "6", "--c1", "1,0,0,6", "--c2", "6,0,0,1", "--out", str(cert)])
    good = json.loads(cert.read_text())

    def check(data):
        cert.write_text(json.dumps(data))
        return run(capsys, ["check", "--cert", str(cert)])

    bad = json.loads(json.dumps(good))
    bad["steps"][0]["orders"] = [999, 1]
    code, out, _ = check(bad)
    assert code == 1
    assert "step 0: stated orders [999, 1]" in out

    bad = json.loads(json.dumps(good))
    for step in bad["steps"]:
        del step["orders"]
    assert check(bad)[0] == 0  # orders are optional
    bad["degree"] = 12345
    code, out, _ = check(bad)
    assert code == 1
    assert "stated degree 12345 is not the order 6" in out

    for orders in ("12", [1], [1, 2, 3], ["x", 1]):
        bad = json.loads(json.dumps(good))
        bad["steps"][1]["orders"] = orders
        code, _, err = check(bad)
        assert code == 2 and "malformed certificate" in err, orders


def test_check_rejects_a_sign_not_plus_or_minus_one(capsys, tmp_path):
    from k0av.k0 import Derivation, validate_derivation

    cert = tmp_path / "cert.json"
    run(capsys, ["derive", "--n", "6", "--c1", "1,0,0,6", "--c2", "6,0,0,1", "--out", str(cert)])
    good = json.loads(cert.read_text())
    for sign in (0, 2):
        bad = json.loads(json.dumps(good))
        bad["steps"][0]["sign"] = sign
        failures = [f"step 0: sign {sign} is not +1/-1", "steps do not telescope to [c1] - [c2]"]
        check = validate_derivation(Derivation.from_json(bad))
        assert not check and list(check.failures) == failures
        cert.write_text(json.dumps(bad))
        code, out, _ = run(capsys, ["check", "--json", "--cert", str(cert)])
        assert code == 1
        assert json.loads(out)["failures"] == failures



def test_check_goal_order_past_the_digit_limit(capsys, tmp_path):
    # The goals' order is 10^8000, past the 4300-digit int-conversion
    # limit: its failure line shows it shortened, not a traceback.
    level = 10**4000
    cert = _goal_only(level, level, [[1, 0], [0, 1]], degree=1)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    line = "stated degree 1 is not the order 1000000000... (8001 digits) of the goal subgroups"
    code, out, err = run(capsys, ["check", "--cert", str(path)])
    assert (code, out, err) == (1, f"certificate INVALID:\n  {line}\n", "")
    code, out, err = run(capsys, ["check", "--json", "--cert", str(path)])
    assert code == 1 and err == ""
    assert json.loads(out)["failures"] == [line]


def test_check_failure_lines_shorten_long_integers(capsys, tmp_path):
    # An integer of more than 40 digits is echoed as its first 10 digits
    # and its digit count; one of 40 digits or fewer in full.
    from k0av.errors import int_excerpt

    assert int_excerpt(-(10**40 - 1)) == str(-(10**40 - 1))
    assert int_excerpt(10**40) == "1000000000... (41 digits)"
    # 2^13301 = 9.9993...e4003, just below a power of ten.
    assert int_excerpt(-(2**13301)) == "-9999362817... (4004 digits)"
    lat = [[1, 0], [0, 2]]
    level = 10**4000 + 1
    run(capsys, ["derive", "--n", "6", "--c1", "1,0,0,6", "--c2", "6,0,0,1", "--out", str(tmp_path / "good.json")])
    good = json.loads((tmp_path / "good.json").read_text())
    big_orders = json.loads(json.dumps(good))
    big_orders["steps"][0]["orders"][0] = 10**4000
    big_sign = json.loads(json.dumps(good))
    big_sign["steps"][0]["sign"] = -(10**4000)
    cases = [
        (_goal_only(level, 2, lat), ["c1 is not killed by the level 1000000000... (4001 digits)",
                                      "c2 is not killed by the level 1000000000... (4001 digits)"]),
        (_goal_only(-level, 2, lat), ["level -1000000000... (4001 digits) is not positive"]),
        (_goal_only(2, 2, lat, degree=10**4200), ["stated degree 1000000000... (4201 digits) is not the order 2 of the goal subgroups"]),
        (_goal_only(2, 2, lat, degree=10**40 - 1), [f"stated degree {10**40 - 1} is not the order 2 of the goal subgroups"]),
        (big_orders, ["step 0: stated orders [1000000000... (4001 digits), 6] are not the indices [6, 6] over the base"]),
        (big_sign, ["step 0: sign -1000000000... (4001 digits) is not +1/-1", "steps do not telescope to [c1] - [c2]"]),
    ]
    path = tmp_path / "cert.json"
    for cert, failures in cases:
        path.write_text(json.dumps(cert))
        code, out, _ = run(capsys, ["check", "--json", "--cert", str(path)])
        assert code == 1
        assert json.loads(out)["failures"] == failures
        assert max(map(len, failures)) <= 100

def test_selftest_small(capsys):
    code, out, _ = run(capsys, ["selftest", "--max-disc", "60", "--max-level", "4"])
    assert code == 0
    for name in (
        "reduced forms vs enumeration",
        "square subgroup vs ideal squaring",
        "norm decisions vs witness search",
        "matrix degrees vs lattice index",
        "subgroup counts vs enumeration",
        "derivations validate exhaustively",
    ):
        assert f"{name}: ok" in out


def test_selftest_json(capsys):
    code, out, _ = run(capsys, ["selftest", "--max-disc", "30", "--max-level", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["suites"]) == 6


def test_selftest_disagreement_exits_1(capsys, monkeypatch):
    from k0av import oracle

    # An oracle that misses the one reduced form of discriminant -3; its
    # square classes are built from the same list, so two suites disagree.
    enumerate_forms = oracle.enumerate_reduced_forms
    monkeypatch.setattr(oracle, "enumerate_reduced_forms", lambda d: enumerate_forms(d)[1:])
    argv = ["selftest", "--max-disc", "3", "--max-level", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert out.splitlines()[:3] == [
        "reduced forms vs enumeration: FAIL: form lists differ at disc -3",
        "square subgroup vs ideal squaring: FAIL: square subgroups differ at disc -3",
        "norm decisions vs witness search: ok",
    ]
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert [s["ok"] for s in data["suites"]] == [False, False, True, True, True, True]
    assert data["suites"][0]["detail"] == "form lists differ at disc -3"


def _cli(argv):
    """Run `k0` in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(k0av.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "k0av.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


_LIMIT = sys.get_int_max_str_digits()
_BIG = "7" * (_LIMIT + 1)  # one digit over the int-conversion limit
_NEAR = "9" * max(_LIMIT - 300, 1)  # a literal within the limit whose square is not
_DEEP_DUAL = "dual(" * 330 + "[1; 2]" + ")" * 330
_DEEP_JSON = "[" * 100_000 + "]" * 100_000
_CHAR_P = '{"case": "char_p_end_z", "p": 5}'
_BIG_CM = '{"case": "cm", "disc": -100000000003}'
_DISC_LIMIT = f"class-group limit of {MAX_CLASS_GROUP_DISC}"

# argv with {ctx} and {file} placeholders, contents of {file}, stderr fragment
_REFUSED = [
    pytest.param(["eval", "--ctx", "{ctx}", _DEEP_DUAL], None, "nested deeper than", id="deep-dual"),
    pytest.param(["structure", "--ctx", "{file}"], _DEEP_JSON, "too deeply", id="deep-context"),
    pytest.param(["check", "--cert", "{file}"], _DEEP_JSON, "too deeply", id="deep-certificate"),
    pytest.param(["eval", "--ctx", "{ctx}", f"[{_BIG}; 2]"], None, "limit of", id="big-multiplicity"),
    pytest.param(["eval", "--ctx", "{ctx}", f"{_BIG}*[1; 2]"], None, "limit of", id="big-coefficient"),
    pytest.param(["eval", "--ctx", "{ctx}", f"[1; {_BIG}]"], None, "limit of", id="big-degree"),
    pytest.param(
        ["eval", "--ctx", "{ctx}", "[1; 2]", "--equals", f"[1; 3/{_BIG}]"],
        None,
        "limit of",
        id="big-denominator",
    ),
    pytest.param(["dist", "--ctx", "{ctx}", "--degree", _BIG], None, "limit of", id="big-dist-degree"),
    pytest.param(
        ["dist", "--ctx", "{file}", "--kernel", f"{{coprime:{_BIG}}}"],
        _CHAR_P,
        "limit of",
        id="big-dist-kernel",
    ),
    pytest.param(
        ["structure", "--ctx", "{file}"], f'{{"case": "end_z", "g": {_BIG}}}', "limit of", id="big-context"
    ),
    pytest.param(
        ["check", "--cert", "{file}"],
        f'{{"format": "k0-derivation/1", "level": -{_BIG}}}',
        "limit of",
        id="big-certificate",
    ),
    pytest.param(["structure", "--ctx", "{file}"], b"\xff\xfe{}", "not UTF-8", id="non-utf8-context"),
    pytest.param(["structure", "--ctx", "{file}"], '{"case": ["x"]}', "field case must be a string", id="list-case"),
    pytest.param(
        ["structure", "--ctx", "{file}"], '{"case": {"a": 1}}', "field case must be a string", id="object-case"
    ),
    pytest.param(["eval", "--ctx", "{ctx}", f"{_NEAR}*[{_NEAR}; 1]"], None, "limit of", id="big-result"),
    pytest.param(
        ["eval", "--json", "--ctx", "{ctx}", f"{_NEAR}*[{_NEAR}; 1]"], None, "limit of", id="big-result-json"
    ),
    pytest.param(
        ["eval", "--ctx", "{file}", f"{_NEAR}*[1; {{zp:{_NEAR}}}]"], _CHAR_P, "limit of", id="big-p-degree"
    ),
    pytest.param(
        ["eval", "--json", "--ctx", "{file}", f"{_NEAR}*[1; {{zp:{_NEAR}}}]"],
        _CHAR_P,
        "limit of",
        id="big-p-degree-json",
    ),
    # Literals are ASCII digits: other Unicode digits and `int()`'s
    # underscores are refused by every reader.
    pytest.param(
        ["eval", "--ctx", "{file}", "[\u0661; \u0662]"],
        '{"case": "end_z", "g": 1}',
        "unexpected character",
        id="arabic-indic-class",
    ),
    pytest.param(
        ["eval", "--ctx", "{file}", "[1; {zp:\u0663}]"], _CHAR_P, "unexpected character", id="arabic-indic-kernel"
    ),
    pytest.param(
        ["dist", "--ctx", "{ctx}", "--degree", "\u0666"], None, "unexpected character", id="arabic-indic-degree"
    ),
    pytest.param(
        ["dist", "--ctx", "{file}", "--kernel", "{zp:%}"],
        _CHAR_P,
        "error: bad kernel '{zp:%}': at position 4",
        id="bad-kernel-named",
    ),
    # A kernel literal's own checks are positioned parse errors; the checks
    # that need the context's p come after.
    pytest.param(
        ["dist", "--ctx", "{file}", "--kernel", "{coprime:0}"],
        _CHAR_P,
        "error: bad kernel '{coprime:0}': at position 0: coprime order must be positive",
        id="kernel-coprime-zero",
    ),
    pytest.param(
        ["eval", "--ctx", "{file}", "[1; {coprime:0}]"],
        _CHAR_P,
        "error: at position 4: coprime order must be positive",
        id="eval-kernel-coprime-zero",
    ),
    pytest.param(
        ["dist", "--ctx", "{file}", "--kernel", "{coprime:10}"], _CHAR_P, "cannot involve p", id="kernel-coprime-p"
    ),
    pytest.param(
        ["dist", "--ctx", "{file}", "--kernel", "{coprime:10}"],
        '{"case": "supersingular", "p": 5}',
        "cannot involve p",
        id="supersingular-kernel-coprime-p",
    ),
    pytest.param(
        ["dist", "--ctx", "{file}", "--kernel", "{alphap:1}"], _CHAR_P, "no alpha_p constituents", id="kernel-alphap"
    ),
    pytest.param(
        ["derive", "--n", "2", "--c1", "\u0661,0,0,2", "--c2", "2,0,0,1"],
        None,
        "bad subgroup basis",
        id="arabic-indic-basis",
    ),
    pytest.param(
        ["derive", "--n", "1_0", "--c1", "1,0,0,10", "--c2", "10,0,0,1"],
        None,
        "argument --n",
        id="underscore-order",
    ),
    pytest.param(
        ["derive", "--n", "10", "--c1", "1_0,0,0,1", "--c2", "1,0,0,10"],
        None,
        "bad subgroup basis",
        id="underscore-basis",
    ),
    pytest.param(
        ["derive", "--n", str(2**44), "--c1", f"1,0,0,{2**44}", "--c2", f"{2**44},0,0,1"],
        None,
        "limit of",
        id="derive-order-2^44",
    ),
    # class groups are enumerated in time linear in |d|
    pytest.param(["classgroup", "--disc", "-100000000003"], None, _DISC_LIMIT, id="classgroup-big-disc"),
    pytest.param(["structure", "--ctx", "{file}"], _BIG_CM, _DISC_LIMIT, id="structure-big-disc"),
    pytest.param(["dist", "--ctx", "{file}", "--degree", "11"], _BIG_CM, _DISC_LIMIT, id="dist-big-disc"),
    # selftest walks every discriminant and level up to its bounds
    pytest.param(
        ["selftest", "--max-disc", str(MAX_SELFTEST_DISC + 1)],
        None,
        f"--max-disc: {MAX_SELFTEST_DISC + 1} is over the selftest limit of {MAX_SELFTEST_DISC}",
        id="selftest-big-disc",
    ),
    pytest.param(
        ["selftest", "--max-level", str(MAX_SELFTEST_LEVEL + 1)],
        None,
        f"selftest limit of {MAX_SELFTEST_LEVEL}",
        id="selftest-big-level",
    ),
    pytest.param(
        ["selftest", "--max-disc", "-5", "--max-level", "-1"],
        None,
        f"--max-disc: -5 is under the selftest minimum of {MIN_SELFTEST_DISC}",
        id="selftest-negative-disc",
    ),
    pytest.param(
        ["selftest", "--max-level", "0"],
        None,
        f"--max-level: 0 is under the selftest minimum of {MIN_SELFTEST_LEVEL}",
        id="selftest-zero-level",
    ),
]


@pytest.mark.parametrize("argv, contents, fragment", _REFUSED)
def test_refused_inputs_exit_2_without_traceback(tmp_path, argv, contents, fragment):
    if fragment == "limit of" and not _LIMIT:
        pytest.skip("the interpreter sets no int-conversion limit")
    ctx = tmp_path / "ctx.json"
    ctx.write_text(json.dumps({"case": "cm", "disc": -20}))
    file = tmp_path / "input.json"
    if isinstance(contents, bytes):
        file.write_bytes(contents)
    elif contents is not None:
        file.write_text(contents)
    argv = [a.replace("{ctx}", str(ctx)).replace("{file}", str(file)) for a in argv]
    code, _, err = _cli(argv)
    assert code == 2, err[-300:]
    assert err.startswith("error:") and fragment in err, err[-300:]
    assert "Traceback" not in err


# k*[1; q] is (k, class(q)^k): a coefficient of thousands of digits is one
# closed-form power, and the right side keeps the multiplicity.  In end_z g=2
# class(6)^k depends on k mod 4; in the exponent-2 groups, on k mod 2.
@pytest.mark.parametrize(
    "spec, right, code",
    [
        ({"case": "end_z", "g": 2}, f"[{_NEAR}; {6 ** (int(_NEAR) % 4)}]", 0),
        ({"case": "end_z", "g": 2}, f"[{_NEAR}; {6 ** (int(_NEAR) % 4 + 1)}]", 1),
        ({"case": "cm", "disc": -5291}, f"[{_NEAR}; {6 ** (int(_NEAR) % 2)}]", 0),
        ({"case": "char_p_end_z", "p": 7}, f"[{_NEAR}; {6 ** (int(_NEAR) % 2)}]", 0),
        ({"case": "char_p_end_z", "p": 7}, f"[{_NEAR}; {6 ** (int(_NEAR) % 2 + 1)}]", 1),
    ],
    ids=["end_z", "end_z-unequal", "cm", "char_p_end_z", "char_p_end_z-unequal"],
)
def test_large_coefficient_answers(tmp_path, spec, right, code):
    file = tmp_path / "ctx.json"
    file.write_text(json.dumps(spec))
    got, out, err = _main_captured(["eval", "--ctx", str(file), f"{_NEAR}*[1; 6]", "--equals", right])
    assert (got, err) == (code, "")
    assert out.count(f"({_NEAR}, ") == 2


@pytest.mark.parametrize(
    "degree, answer",
    [("4", "identity"), ("3", "coset (1, 1, 25000000001); odd inert exponents at 3")],
    ids=["norm", "inert"],
)
def test_dist_past_the_class_group_limit(tmp_path, degree, answer):
    # 4 is a norm and 3 is inert in Q(sqrt(-100000000003)), so neither
    # answer needs the class group the split prime 11 would.
    file = tmp_path / "big.json"
    file.write_text(_BIG_CM)
    code, out, err = _cli(["dist", "--ctx", str(file), "--degree", degree])
    assert code == 0, err
    assert out == answer + "\n"


def test_eval_sum_past_the_class_group_limit(tmp_path):
    # A sum of inert-only classes XORs masks 0 and needs no class group;
    # adding the split prime 11 does.
    file = tmp_path / "big.json"
    file.write_text(_BIG_CM)
    code, out, err = _cli(["eval", "--ctx", str(file), "[1; 3] + [2; 4]"])
    assert code == 0, err
    assert out == "(3, coset (1, 1, 25000000001); odd inert exponents at 3)\n"
    code, out, err = _cli(["eval", "--ctx", str(file), "[1; 3] + [1; 11]"])
    assert code == 2 and _DISC_LIMIT in err


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Literals stay at most 10^9, so factoring never dominates.  Zeros and
# broken syntax come from the cut and junk strings.
_NAT = st.integers(1, 10**9).map(str)
_KERNEL = st.lists(
    st.tuples(st.sampled_from(["zp", "mup", "alphap", "coprime"]), _NAT),
    max_size=3,
    unique_by=lambda kv: kv[0],
).map(lambda kv: "{" + ", ".join(f"{k}:{v}" for k, v in kv) + "}")
_DEGREE = st.one_of(_NAT, st.builds(lambda a, b: f"{a}/{b}", _NAT, _NAT), _KERNEL)
_EXPR = st.recursive(
    st.builds(lambda n, d: f"[{n}; {d}]", _NAT, _DEGREE),
    lambda inner: st.one_of(
        st.builds(lambda e: f"dual({e})", inner),
        st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from("+-"), inner),
        st.builds(lambda c, e: f"{c}*{e}", st.integers(-(10**9), 10**9).map(str), inner),
    ),
    max_leaves=6,
)
_JUNK = st.text(alphabet="[];*+-/(){}:, 0123456789dualzpmcoprimefrob\n.x", max_size=40)


def _cut(text, i):
    i %= len(text) + 1
    return text[:i] + text[i + 1 :]


_FUZZ = st.one_of(_EXPR, _EXPR, st.builds(_cut, _EXPR, st.integers(0, 200)), _JUNK)
_FUZZ_CONTEXTS = (
    {"case": "end_z", "g": 2},
    {"case": "cm", "disc": -84},
    {"case": "supersingular", "p": 7},
    {"case": "ordinary_cm", "disc": -84, "p": 5},
    {"case": "char_p_end_z", "p": 5},
)


def test_eval_fuzz_exit_contract(tmp_path):
    paths = []
    for i, spec in enumerate(_FUZZ_CONTEXTS):
        path = tmp_path / f"ctx{i}.json"
        path.write_text(json.dumps(spec))
        paths.append(str(path))

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(st.sampled_from(paths), _FUZZ, st.one_of(st.none(), _FUZZ))
    def check(path, left, right):
        argv = ["eval", "--ctx", path, "--", left]
        if right is not None:
            argv.insert(3, f"--equals={right}")
        code, _, err = _main_captured(argv)
        assert code in (0, 1, 2), (argv, code)
        assert ("error:" in err) == (code == 2), (argv, err)

    check()


# The other readers of the one lexer: degrees, kernel literals and subgroup
# bases, well-formed, cut, or junk with stray and non-ASCII characters.
_LITERAL_JUNK = st.text(alphabet="{}:,/ 0123456789zpmucoprimealph-_.٣１ $%\x00", max_size=24)


def _hermite(n):
    """Hermite bases 'a,b,0,d' of order-n subgroups at level n."""
    return st.builds(
        lambda a, b, sep: sep.join(map(str, (a, b % (n // a), 0, n // a))),
        st.sampled_from([a for a in range(1, n + 1) if n % a == 0]),
        st.integers(0, n),
        st.sampled_from([",", " ", ", "]),
    )


def _literal(well_formed):
    return st.one_of(well_formed, st.builds(_cut, well_formed, st.integers(0, 40)), _LITERAL_JUNK)


def test_literal_fuzz_exit_contract(tmp_path):
    paths = []
    for i, spec in enumerate(({"case": "cm", "disc": -84}, {"case": "char_p_end_z", "p": 5})):
        path = tmp_path / f"ctx{i}.json"
        path.write_text(json.dumps(spec))
        paths.append(str(path))
    argvs = st.one_of(
        st.builds(lambda ctx, d: ["dist", "--ctx", ctx, f"--degree={d}"], st.sampled_from(paths), _literal(_DEGREE)),
        st.builds(lambda ctx, k: ["dist", "--ctx", ctx, f"--kernel={k}"], st.sampled_from(paths), _literal(_KERNEL)),
        st.sampled_from([1, 4, 6, 12]).flatmap(
            lambda n: st.builds(
                lambda c1, c2: ["derive", "--n", str(n), f"--c1={c1}", f"--c2={c2}"],
                _literal(_hermite(n)),
                _literal(_hermite(n)),
            )
        ),
    )

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(argvs)
    def check(argv):
        code, _, err = _main_captured(argv)
        assert code in (0, 1, 2), (argv, code)
        assert ("error:" in err) == (code == 2), (argv, err)
        assert "Traceback" not in err, argv

    check()


# Context files as a user might get them wrong: a field dropped, a key added,
# a value of the wrong type or out of range, or no object at all.  Drawn
# integers stay within 5000 in size, so no class group or factorization is
# large enough to dominate.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5000, 5000), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=5,
)
_CONTEXT_KEYS = st.sampled_from(["case", "g", "disc", "p", "P", ""])
# Small integers are often primes and fundamental discriminants, so some
# mutated files still name a valid context and reach an answer.
_FIELD_VALUE = st.one_of(st.integers(-60, 60), st.integers(-5000, 5000), _JSON)


@st.composite
def _mutated_context(draw):
    spec = dict(draw(st.sampled_from(_FUZZ_CONTEXTS)))
    kind = draw(st.sampled_from(["drop", "add", "value", "case", "non-object"]))
    if kind == "drop":
        spec.pop(draw(st.sampled_from(sorted(spec))))
    elif kind == "add":
        spec[draw(st.one_of(_CONTEXT_KEYS, st.text(max_size=6)))] = draw(_JSON)
    elif kind == "value":
        spec[draw(st.sampled_from(sorted(set(spec) - {"case"})))] = draw(_FIELD_VALUE)
    elif kind == "case":
        spec["case"] = draw(st.one_of(st.sampled_from([c["case"] for c in _FUZZ_CONTEXTS]), _JSON))
    else:
        return draw(st.one_of(st.lists(_JSON, max_size=3), st.none(), st.integers(-5000, 5000), st.text(max_size=6)))
    return spec


def test_context_file_fuzz_exit_contract(tmp_path):
    path = tmp_path / "ctx.json"
    commands = st.sampled_from(
        [
            ["structure"],
            ["dist", "--degree", "6"],
            ["dist", "--degree", "35/3"],
            ["dist", "--kernel", "{mup:1, coprime:3}"],
        ]
    )

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(_mutated_context(), commands)
    def check(spec, command):
        path.write_text(json.dumps(spec))
        argv = [command[0], "--ctx", str(path), *command[1:]]
        code, _, err = _main_captured(argv)
        assert code in (0, 1, 2), (spec, argv, code)
        assert ("error:" in err) == (code == 2), (spec, argv, err)
        assert "Traceback" not in err, (spec, argv)

    check()


def _json_paths(value, path=()):
    """Every position in a JSON value, the root included, as key/index paths."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, (*path, key))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


# Real certificates, then one mutation each: a key dropped or added at any
# depth, a value replaced, a step dropped or duplicated, or no object at all.
_CERT_KEYS = st.sampled_from(["format", "level", "degree", "c1", "c2", "steps", "sign", "base", "sub1", "sub2",
                              "sum", "orders", "den", "basis", ""])


@st.composite
def _mutated_certificate(draw, certs):
    cert = json.loads(json.dumps(draw(st.sampled_from(certs))))
    kind = draw(st.sampled_from(["drop", "add", "value", "step", "non-object"]))
    if kind == "non-object":
        return draw(st.one_of(st.lists(_JSON, max_size=3), st.none(), st.integers(-5000, 5000), st.text(max_size=6)))
    if kind == "step":
        steps = cert["steps"]
        i = draw(st.integers(0, len(steps) - 1))
        steps[i:i + 1] = [steps[i]] * draw(st.sampled_from([0, 2]))
        return cert
    paths = list(_json_paths(cert))
    if kind == "drop":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(_at(cert, p[:-1]), dict)]))
        del _at(cert, path[:-1])[path[-1]]
    elif kind == "add":
        target = _at(cert, draw(st.sampled_from([p for p in paths if isinstance(_at(cert, p), dict)])))
        target[draw(st.one_of(_CERT_KEYS, st.text(max_size=6)))] = draw(_JSON)
    else:
        path = draw(st.sampled_from(paths[1:]))
        _at(cert, path[:-1])[path[-1]] = draw(st.one_of(st.integers(-5000, 5000), _JSON))
    return cert


def test_certificate_fuzz_exit_contract(tmp_path):
    from k0av.arith import TorsionSubgroup
    from k0av.k0 import derive_same_degree

    certs = []
    for n in range(2, 13):
        # The cyclic subgroups generated by (1/n, 0), (0, 1/n) and (1/n, 1/n).
        cyclic = [TorsionSubgroup(n, basis) for basis in (((1, 0), (0, n)), ((n, 0), (0, 1)), ((1, 1), (0, n)))]
        certs += [derive_same_degree(n, c1, c2).to_json() for c1, c2 in zip(cyclic, cyclic[1:])]
    path = tmp_path / "cert.json"

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(_mutated_certificate(certs))
    def check(cert):
        path.write_text(json.dumps(cert))
        code, _, err = _main_captured(["check", "--cert", str(path)])
        assert code in (0, 1, 2), (cert, code)
        assert ("error:" in err) == (code == 2), (cert, err)
        assert "Traceback" not in err, cert

    check()
