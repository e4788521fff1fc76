"""End-to-end CLI behaviour: output shapes and exit codes."""

import json

import pytest

from k0av.cli import main


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
