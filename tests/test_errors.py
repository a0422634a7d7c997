"""The error model: every exception class of the library is a `PtssError`,
the command line catches exactly that, and no input ends in a traceback."""

import ast
import contextlib
import importlib
import io
import json
import pathlib
import select
import subprocess

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ptsskit.bisim import KINDS
from ptsskit.cli import main
from ptsskit.engine import load_pts
from ptsskit.errors import PtssError
from ptsskit.parser import parse_spec
from tests.conftest import CORPUS, capped_python

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ptsskit"


def test_every_exception_class_is_a_ptss_error():
    seen = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("ptsskit" if path.stem == "__init__" else f"ptsskit.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)  # every class is defined at module level
                if issubclass(cls, BaseException):
                    assert issubclass(cls, PtssError), f"{path.name}: {node.name}"
                    seen.append(node.name)
    assert "ParseFailure" in seen and "DomainBoundError" in seen and "CliError" not in seen


def test_cli_entry_points_catch_only_ptss_error():
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("main", "corpus_run"):
        handlers = [n for n in ast.walk(functions[name]) if isinstance(n, ast.ExceptHandler)]
        assert [ast.unparse(h.type) for h in handlers] == ["PtssError"], name


# -- fuzzing -------------------------------------------------------------------

TEXTS = [path.read_text() for path in sorted(CORPUS.iterdir())]
SMALL_PTS = [t for t in TEXTS if t.count("\nstate ") <= 6 and "\ntrans " in t]
TERMS = ["0", "x", "a.delta(0)", "+(a.delta(0),0)", "b.oplus{1/2:delta(0),1/2:delta(a.delta(0))}",
         "delta(0)", "t0", "t1", "u1", "stop"]
NOISE = st.text(alphabet="(){}<>,.:;|-+/_#=~ \n\t01axyzsδé\x00", max_size=8)


@st.composite
def mutated(draw, sources):
    """A source text with up to three slices deleted, duplicated or replaced by noise."""
    text = draw(st.sampled_from(sources))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        text = text[:i] + draw(st.sampled_from(["", text[i:j] * 2, draw(NOISE)])) + text[j:]
    return text


TERM = st.one_of(st.sampled_from(TERMS), mutated(TERMS), NOISE)


def _only_ptss_errors(parse, text):
    try:
        parse(text)
    except PtssError:
        pass


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    spec=mutated(TEXTS),
    pts=mutated(SMALL_PTS),
    bad_byte=st.sampled_from([False] * 7 + [True]),
    root=TERM,
    s=TERM,
    t=TERM,
    kind=st.sampled_from(KINDS),
    states=st.lists(st.sampled_from(["t0", "t1", "t2", "u1", "stop", "x"]), min_size=2, max_size=2),
)
# a second `--` as t: Python 3.11's argparse gives t=[], which is a usage error
@example(spec=(CORPUS / "cx2.ptss").read_text(), pts=SMALL_PTS[0], bad_byte=False, root="0", s="0", t="--",
         kind="branching", states=["t0", "t1"])
def test_mutated_input_ends_in_a_verdict_or_a_diagnostic(tmp_path, spec, pts, bad_byte, root, s, t, kind, states):
    _only_ptss_errors(parse_spec, spec)
    _only_ptss_errors(load_pts, pts)
    spec_path, pts_path = tmp_path / "spec.ptss", tmp_path / "aut.pts"
    suffix = b"\xff" if bad_byte else b""
    spec_path.write_bytes(spec.encode("utf-8", "surrogatepass") + suffix)
    pts_path.write_bytes(pts.encode("utf-8", "surrogatepass"))
    bounds = ["--max-depth", "4", "--max-states", "24", "--max-iterations", "8"]
    runs = [
        ["check-format", str(spec_path)],
        ["pts", str(spec_path), f"--root={root}", *bounds],
        ["bisim", "--kind", kind, *bounds, "--", str(spec_path), s, t],
        ["bisim", "--kind", kind, "--", str(pts_path), *states],
    ]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error, which argparse reports
                code = exc.code
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in out.getvalue() + err.getvalue()


# -- numeric fields of .pts text -------------------------------------------------

# runs each command line it reads (one JSON list a line) and answers with its
# exit code and output, so that each example gets a deadline without paying
# for a fresh interpreter
WORKER = """
import contextlib, io, json, sys, traceback
from ptsskit.cli import main
for line in sys.stdin:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    print(json.dumps([code, out.getvalue()]), flush=True)
"""
DEADLINE_S = 10

DIGITS = st.one_of(st.text("0123456789", min_size=1, max_size=5), st.integers(4295, 4305).map("7".__mul__))
NUMBER = st.one_of(
    st.builds(
        lambda *parts: "".join(parts),
        st.sampled_from(["", "", "-", "+", " "]),
        DIGITS,
        st.one_of(st.just(""), DIGITS.map(".".__add__)),
        st.sampled_from(["", "", "e5", "e99999", "E-999999999", "e+999999999"]),
        st.one_of(st.just(""), st.just("/"), DIGITS.map("/".__add__)),
    ),
    st.sampled_from(["", "inf", "nan", "1_000", "0x1f", "1 / 2", "\u00bd", "\u0661/\u0662"]),
)


@pytest.fixture(scope="module")
def cli_worker(tmp_path_factory):
    with capped_python(["-c", WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        yield proc, tmp_path_factory.mktemp("numeric")
        proc.kill()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(weights=st.lists(NUMBER, min_size=3, max_size=3), kind=st.sampled_from(KINDS))
def test_numeric_fields_end_in_a_verdict_or_a_diagnostic_in_time(cli_worker, weights, kind):
    proc, base = cli_worker
    w1, w2, w3 = weights
    path = base / "aut.pts"
    path.write_text(f"state s\nstate t\ntrans s --a-> {{ t: {w1}, s: {w2} }}\ntrans t --tau-> {{ s: {w3} }}\n")
    root = f"a.oplus{{{w1}:delta(0),{w2}:delta(b.delta(0))}}"
    for argv in (["bisim", "--kind", kind, str(path), "s", "t"], ["pts", str(CORPUS / "running.ptss"), f"--root={root}"]):
        proc.stdin.write(json.dumps(argv) + "\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], DEADLINE_S)
        if not ready:
            proc.kill()
        assert ready, f"{argv} ran past {DEADLINE_S} s"
        code, output = json.loads(proc.stdout.readline())
        assert code in (0, 1, 2, 3) and "Traceback" not in output, (argv, output)


# -- deep terms built by rules -------------------------------------------------

GROW = """\
ptss grow
actions a, tau
op 0 : -> s
op pre<A> : d -> s
op g : s -> s
rule prefix: <A>.mu --<A>-> mu
rule r: {rule}
"""
TEN_G = "g(" * 11 + "x" + ")" * 11
TEN_OPLUS = "oplus{1:" * 10 + "mu" + "}" * 10


@pytest.mark.parametrize("rule,root,bounds", [
    ("g(x) --a-> delta(g(g(x)))", "g(0)", ["--max-depth", "1500"]),
    ("g(x) --a-> delta(g(g(x)))", "g(0)", ["--max-depth", "5000"]),
    # ten levels a step, so that terms pass a thousand levels before a bound trips
    (f"g(x) --a-> delta({TEN_G})", "g(0)", ["--max-depth", "1500", "--max-states", "5000"]),
    # the same in distribution terms, which `evaluate` walks
    (f"g(a.mu) --a-> delta(g(a.{TEN_OPLUS}))", "g(a.delta(0))", ["--max-depth", "1200", "--max-states", "5000"]),
], ids=["double-1500", "double-5000", "ten-states", "ten-distributions"])
def test_rule_built_deep_terms_end_in_a_result_or_a_bound_in_time(tmp_path, rule, root, bounds):
    code, err = _grow(tmp_path, rule, root, bounds)
    assert code in (0, 3) and "Traceback" not in err, err[-2000:]
    assert len(err) < 400  # a bound message shows at most 200 characters of its term


@pytest.mark.parametrize("depth", [1500, 5000])
def test_each_distribution_node_is_evaluated_once(tmp_path, depth):
    # each round's new state steps to an oplus chain one round longer than the
    # last; evaluated afresh at each call, the chains took 1.7 s and 19 s
    bounds = ["--max-depth", str(depth), "--max-states", "5000"]
    code, err = _grow(tmp_path, f"g(a.mu) --a-> delta(g(a.{TEN_OPLUS}))", "g(a.delta(0))", bounds)
    target = "delta(g(a." + "oplus{1:" * 30
    assert (code, err) == (3, f"error: conclusion target exceeds max depth: {target[:200]}... (depth {depth + 5})\n")


def _grow(tmp_path, rule, root, bounds):
    """The exit code and stderr of `pts` on GROW with `rule`, run in a fresh
    capped interpreter that must finish within DEADLINE_S."""
    spec = tmp_path / "grow.ptss"
    spec.write_text(GROW.format(rule=rule))
    argv = ["-m", "ptsskit.cli", "pts", str(spec), "--root", root, *bounds]
    with capped_python(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            _, err = proc.communicate(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            pytest.fail(f"{rule} {bounds} ran past {DEADLINE_S} s")
    return proc.returncode, err
