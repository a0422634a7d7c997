"""The `requires-python >=3.10` floor: each other interpreter found on PATH
runs `corpus-run corpus --json` and the `tests/golden_pts.json` cases in one
subprocess, and must print what the golden file holds and what this
interpreter prints, and must import `ptsskit.cli` without loading `dataclasses`
or what it pulls in.  It also parses a fixed list of malformed specs and
terms, some with characters that only some Unicode classes take, and must
give the diagnostics this interpreter gives: the lexer leans on `re`'s `\\d`
and on `str.splitlines`, which follow each interpreter's Unicode database.
And the CLI's argv table must read each regular argv of
`tests/test_argv_table.py` as that interpreter's argparse does, and leave
each irregular one to argparse, whose parsing differs between versions."""

import json
import shutil
import subprocess

import pytest

from tests.conftest import CORPUS, RUNNING_SPEC, capped_python
from tests.test_argv_table import IRREGULAR, REGULAR
from tests.test_front_oracle import ODD as FRONT_ODD
from tests.test_golden_pts import GOLDEN, cases, run
from tests.test_records import HEAVY

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

# reads each argv by the argv table and by argparse: "none" where the table
# leaves it to argparse, else whether the two Namespaces are the same
READ_ARGV = """
from ptsskit.cli import _read_argv, build_parser
def argv_readings(argvs):
    out = []
    for argv in argvs:
        table = _read_argv(list(argv))
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                parsed = build_parser().parse_args(argv)
        except SystemExit:
            parsed = None
        out.append("none" if table is None else "same" if table == parsed else "differs")
    return out
"""

# runs each case it reads as `run` in tests/test_golden_pts.py does; that
# module imports pytest, which another interpreter may lack.  It also names
# the modules of HEAVY that importing ptsskit loaded.
WORKER = "import contextlib, io, json, sys\nbefore = set(sys.modules)\n" + DIAGNOSE + READ_ARGV + """
from ptsskit.cli import main
loaded = [m for m in HEAVY if m in sys.modules and m not in before]
corpus, argvs, specs, terms, table_argvs = json.load(sys.stdin)
def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, **{k: v.getvalue().replace(corpus, "corpus") for k, v in (("stdout", out), ("stderr", err))}}
cases = {key: run(argv) for key, argv in argvs.items()}
print(json.dumps({"cases": cases, "diagnostics": diagnostics(corpus, specs, terms), "loaded": loaded,
                  "argv": argv_readings(table_argvs)}))
""".replace("HEAVY", repr(HEAVY))

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
    request = [str(CORPUS), argvs, MALFORMED_SPECS, MALFORMED_TERMS, REGULAR + IRREGULAR]
    with capped_python(["-c", WORKER], python=python, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(json.dumps(request), timeout=300)
        finally:
            proc.kill()
    assert proc.returncode == 0, err[-2000:]
    got = json.loads(out)
    assert got["loaded"] == []
    assert got["argv"] == ["same"] * len(REGULAR) + ["none"] * len(IRREGULAR)
    assert got["cases"].pop("corpus-run") == run(corpus_run)
    assert got["cases"] == json.loads(GOLDEN.read_text())
    here: dict = {}
    exec(DIAGNOSE, here)
    assert got["diagnostics"] == here["diagnostics"](str(CORPUS), MALFORMED_SPECS, MALFORMED_TERMS)
