"""The `requires-python >=3.10` floor: each other interpreter found on PATH
runs `corpus-run corpus --json` and the `tests/golden_pts.json` cases in one
subprocess, and must print what the golden file holds and what this
interpreter prints.  It also parses a fixed list of malformed specs and
terms, some with characters that only some Unicode classes take, and must
give the diagnostics this interpreter gives: the lexer leans on `re`'s `\\d`
and on `str.splitlines`, which follow each interpreter's Unicode database."""

import json
import shutil
import subprocess

import pytest

from tests.conftest import CORPUS, RUNNING_SPEC, capped_python
from tests.test_front_oracle import ODD as FRONT_ODD
from tests.test_golden_pts import GOLDEN, cases, run

# parses each malformed spec, and each malformed term against running.ptss
DIAGNOSE = """
from ptsskit.parser import ParseFailure, parse_spec, parse_term, try_parse_spec
def diagnostics(corpus, specs, terms):
    sig = parse_spec(open(corpus + "/running.ptss").read()).signature
    out = [[str(d) for d in try_parse_spec(text)[1]] for text in specs]
    for text in terms:
        try:
            out.append(str(parse_term(text, sig)))
        except ParseFailure as exc:
            out.append(exc.lines())
    return out
"""

# runs each case it reads as `run` in tests/test_golden_pts.py does; that
# module imports pytest, which another interpreter may lack
WORKER = DIAGNOSE + """
import contextlib, io, json, sys
from ptsskit.cli import main
corpus, argvs, specs, terms = json.load(sys.stdin)
def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, **{k: v.getvalue().replace(corpus, "corpus") for k, v in (("stdout", out), ("stderr", err))}}
cases = {key: run(argv) for key, argv in argvs.items()}
print(json.dumps({"cases": cases, "diagnostics": diagnostics(corpus, specs, terms)}))
"""

# the lexer cross-check's odd characters, more line breaks and digits of other
# scripts, a Roman numeral, a no-break space and the starts of arrows
ODD = FRONT_ODD + ["\x85", "\u2028", "۳", "߀", "𝟙", "Ⅻ", "\xa0", "-", "<", "|"]
MALFORMED_TERMS = [f"a.delta({c})" for c in ODD] + [f"oplus{{1{c}/2:delta(0),1/2:delta(0)}}" for c in ODD] + [
    "١/2", "a.oplus{١:delta(0)}", "a.oplus{1/0:delta(0)}", "+(0,mu)", "a.delta(x", "^+(0)", "<A>.delta(0)", ""]
MALFORMED_SPECS = [RUNNING_SPEC + f"rule r{i}: x --a-> {c}mu\n" for i, c in enumerate(ODD)] + [
    RUNNING_SPEC + "rule r: <A>.delta(g(x)) --<A>-> mu\n", RUNNING_SPEC.replace("tau", "t²u"),
    "ptss x\nactions a, a, tau\nop ١ : -> s\nop f : s -> d\nrule r: x -/a-> |- f(x) --b-> ^f(x)\n"]


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
    request = [str(CORPUS), argvs, MALFORMED_SPECS, MALFORMED_TERMS]
    with capped_python(["-c", WORKER], python=python, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(json.dumps(request), timeout=300)
        finally:
            proc.kill()
    assert proc.returncode == 0, err[-2000:]
    got = json.loads(out)
    assert got["cases"].pop("corpus-run") == run(corpus_run)
    assert got["cases"] == json.loads(GOLDEN.read_text())
    here: dict = {}
    exec(DIAGNOSE, here)
    assert got["diagnostics"] == here["diagnostics"](str(CORPUS), MALFORMED_SPECS, MALFORMED_TERMS)
