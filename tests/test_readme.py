"""README's Python examples and its `k0` command lines run as written."""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```$", TEXT, re.S | re.M)
COMMANDS = [line for block in SH_BLOCKS for line in block.splitlines() if line.startswith("k0 ")]
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_readme_cli_block_runs(tmp_path):
    # The files the README's commands name; each line runs in order, so
    # `k0 check` reads the certificate `k0 derive` wrote.
    (tmp_path / "ctx.json").write_text('{"case": "cm", "disc": -20}')
    (tmp_path / "charp.json").write_text('{"case": "char_p_end_z", "p": 5}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    assert len(COMMANDS) == 10
    for line in COMMANDS:
        argv = [sys.executable, "-m", "k0av.cli", *shlex.split(line)[1:]]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (line, proc.stderr)
