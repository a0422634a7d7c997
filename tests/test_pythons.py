"""The `requires-python >=3.10` floor: each other interpreter found on PATH
runs `corpus-run corpus --json` and the `tests/golden_pts.json` cases in one
subprocess, and must print what the golden file holds and what this
interpreter prints."""

import json
import shutil
import subprocess

import pytest

from tests.conftest import CORPUS, capped_python
from tests.test_golden_pts import GOLDEN, cases, run

# runs each case it reads as `run` in tests/test_golden_pts.py does; that
# module imports pytest, which another interpreter may lack
WORKER = """
import contextlib, io, json, sys
from ptsskit.cli import main
corpus, argvs = json.load(sys.stdin)
def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, **{k: v.getvalue().replace(corpus, "corpus") for k, v in (("stdout", out), ("stderr", err))}}
print(json.dumps({key: run(argv) for key, argv in argvs.items()}))
"""


def _interpreter(name):
    """The path of `name` on PATH if it starts: a version manager's shim may not."""
    path = shutil.which(name)
    if path is None:
        return None
    try:
        started = subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return path if started.returncode == 0 else None


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_another_python_prints_the_same(name):
    python = _interpreter(name)
    if python is None:
        pytest.skip(f"no {name} on PATH")
    corpus_run = ["corpus-run", str(CORPUS), "--json"]
    argvs = {**cases(), "corpus-run": corpus_run}
    with capped_python(["-c", WORKER], python=python, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(json.dumps([str(CORPUS), argvs]), timeout=300)
        finally:
            proc.kill()
    assert proc.returncode == 0, err[-2000:]
    got = json.loads(out)
    assert got.pop("corpus-run") == run(corpus_run)
    assert got == json.loads(GOLDEN.read_text())
