import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ptsskit import cli
from ptsskit.bisim import KINDS
from ptsskit.cli import EXIT_BOUNDS, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from ptsskit.errors import PtssError
from ptsskit.parser import MAX_NESTING
from tests.conftest import CORPUS, RUNNING_SPEC, capped_python
from tests.test_index import COMPONENT, PRODUCT_SPEC


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_format_pass(capsys):
    code, out, _ = run_cli(capsys, "check-format", str(CORPUS / "running.ptss"))
    assert code == EXIT_OK
    assert "overall: pass" in out


def test_check_format_fail_with_violation(capsys):
    code, out, _ = run_cli(capsys, "check-format", str(CORPUS / "cx2.ptss"))
    assert code == EXIT_NEGATIVE
    assert "violation 2b" in out


def test_check_format_json(capsys):
    code, out, _ = run_cli(capsys, "check-format", "--json", str(CORPUS / "cx23.ptss"))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["overall"] is True
    assert data["patience"] == {"g.2": "g_pat"}


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ptss"
    bad.write_text("ptss x\nactions tau\nrule r: q(x) --tau-> mu\n")
    code, _, err = run_cli(capsys, "check-format", str(bad))
    assert code == EXIT_USAGE
    assert "unknown operator" in err


def test_stable_model_complete(tmp_path, capsys):
    spec = tmp_path / "r.ptss"
    spec.write_text(RUNNING_SPEC)
    code, out, _ = run_cli(
        capsys, "stable-model", str(spec), "--root", "a.delta(0)"
    )
    assert code == EXIT_OK
    assert "certain: a.delta(0) --a-> delta(0)" in out
    assert "complete: yes" in out


def test_stable_model_incomplete_exit(capsys):
    code, out, _ = run_cli(
        capsys, "stable-model", str(CORPUS / "incomplete_f.ptss"), "--root", "f"
    )
    assert code == EXIT_NEGATIVE
    assert "possible-only: f --a-> ^f" in out
    assert "possible-only: f --b-> ^f" in out


def test_stable_model_bound_error(tmp_path, capsys):
    spec = tmp_path / "r.ptss"
    spec.write_text(RUNNING_SPEC)
    code, _, err = run_cli(
        capsys, "stable-model", str(spec), "--root", "a.delta(a.delta(0))", "--max-depth", "2"
    )
    assert code == EXIT_BOUNDS
    assert "depth" in err


def test_pts_export_roundtrip(tmp_path, capsys):
    spec = tmp_path / "r.ptss"
    spec.write_text(RUNNING_SPEC)
    out_file = tmp_path / "out.pts"
    code, out, _ = run_cli(
        capsys, "pts", str(spec), "--root", "+(a.delta(0),b.delta(0))", "-o", str(out_file)
    )
    assert code == EXIT_OK
    text = out_file.read_text()
    assert text.startswith("state ")
    code2, out2, _ = run_cli(
        capsys, "bisim", str(out_file), "--kind", "branching", "0", "0"
    )
    assert code2 == EXIT_OK


def test_bisim_pts_negative_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "bisim", str(CORPUS / "mixed_choice.pts"), "--kind", "branching", "t0", "u1"
    )
    assert code == EXIT_NEGATIVE
    assert "NO" in out
    assert "witness" in out


def test_bisim_pts_pbranching_positive(capsys):
    code, out, _ = run_cli(
        capsys, "bisim", str(CORPUS / "mixed_choice.pts"), "--kind", "pbranching", "t0", "u1"
    )
    assert code == EXIT_OK
    assert "YES" in out
    assert "class:" in out


def test_bisim_spec_rooted(tmp_path, capsys):
    spec = tmp_path / "r.ptss"
    spec.write_text(RUNNING_SPEC)
    code, out, _ = run_cli(
        capsys,
        "bisim",
        str(spec),
        "--kind",
        "rooted",
        "a.delta(b.delta(0))",
        "a.delta(tau.delta(b.delta(0)))",
    )
    assert code == EXIT_OK


# a premise source that nothing binds: read as every a-step of the domain,
# it would make f(0)'s answer hang on which other roots were given
OPEN_SOURCE_SPEC = (
    "ptss open\nactions a, b, tau\nop 0 : -> s\nop f : s -> s\nop pre<A> : d -> s\n"
    "rule pre: <A>.mu --<A>-> mu\nrule r: y --a-> mu |- f(x) --b-> mu\n"
)
# a premise source that the rule builds, g(0) for the root f(0), which lies
# outside the roots' subterms and targets until the rule reads it
_G_AX = "ptss g_ax\nactions a, b, tau\nop 0 : -> s\nop f : s -> s\nop g : s -> s\nrule g_ax: g(x) --a-> delta(x)\n"
BUILT_SOURCE_SPECS = {
    "positive": _G_AX + "rule r: g(x) --a-> mu |- f(x) --b-> mu\n",
    "negative": _G_AX + "rule r: g(x) -/a-> |- f(x) --b-> delta(x)\n",
}


@pytest.mark.parametrize("extra", [[], ["--root", "a.delta(0)"]])
def test_an_open_premise_source_stops_the_run_whatever_the_roots(tmp_path, capsys, extra):
    spec = tmp_path / "open.ptss"
    spec.write_text(OPEN_SOURCE_SPEC)
    got = run_cli(capsys, "bisim", str(spec), "--kind", "branching", "f(0)", "0", *extra)
    assert got == (EXIT_BOUNDS, "", "error: rule r: premise source y has unbound variables\n")


@pytest.mark.parametrize("name, steps, verdict", [
    ("positive", ["trans f(0) --b-> { 0: 1 }"], (EXIT_NEGATIVE, "witness: unmatched challenge f(0) --b-> {0: 1}")),
    ("negative", [], (EXIT_OK, "rooted: f(0) ~ 0: YES")),
])
def test_a_built_premise_source_answers_the_same_whatever_the_roots(tmp_path, capsys, name, steps, verdict):
    spec = tmp_path / "g_ax.ptss"
    spec.write_text(BUILT_SOURCE_SPECS[name])
    for extra in ([], ["--root", "g(0)"]):
        code, out, _ = run_cli(capsys, "pts", str(spec), "--root", "f(0)", *extra)
        assert code == EXIT_OK and [line for line in out.splitlines() if line.startswith("trans f(0) ")] == steps
        code, out, _ = run_cli(capsys, "bisim", str(spec), "--kind", "rooted", "f(0)", "0", *extra)
        assert (code, out.splitlines()[-1]) == verdict


def test_bisim_unknown_state(capsys):
    code, _, err = run_cli(
        capsys, "bisim", str(CORPUS / "mixed_choice.pts"), "--kind", "branching", "t0", "zz"
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("path, s", [("cx2.ptss", "0"), ("mixed_choice.pts", "t0")])
def test_a_second_double_dash_is_a_usage_error(capsys, path, s):
    # Python 3.11's argparse reads the last `--` as t=[], which no term or
    # state parser takes; later versions read it as t="--", not a state
    try:
        code = main(["bisim", "--kind", "branching", "--", str(CORPUS / path), s, "--"])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    assert "error: argument t: expected one argument" in err or sys.version_info >= (3, 12)


def test_bisim_json_deterministic(capsys):
    code1, out1, _ = run_cli(
        capsys, "bisim", str(CORPUS / "tau_tree.pts"), "--kind", "branching", "t1", "t2", "--json"
    )
    code2, out2, _ = run_cli(
        capsys, "bisim", str(CORPUS / "tau_tree.pts"), "--kind", "branching", "t1", "t2", "--json"
    )
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    data = json.loads(out1)
    assert data["related"] is True


def test_probe_congruence_cli(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a.delta(b.delta(0)) a.delta(tau.delta(b.delta(0)))\n")
    contexts = tmp_path / "contexts.txt"
    contexts.write_text("f(_)\n")
    code, out, _ = run_cli(
        capsys,
        "probe-congruence",
        str(CORPUS / "cx2.ptss"),
        "--pairs",
        str(pairs),
        "--contexts",
        str(contexts),
        "--max-depth",
        "10",
    )
    assert code == EXIT_NEGATIVE
    assert "violation" in out

    code2, out2, _ = run_cli(
        capsys,
        "probe-congruence",
        str(CORPUS / "cx23.ptss"),
        "--pairs",
        str(pairs),
        "--contexts",
        str(contexts),
        "--max-depth",
        "10",
    )
    assert code2 == EXIT_OK
    assert "no violations" in out2


def test_probe_empty_contexts_file(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a.delta(b.delta(0)) a.delta(tau.delta(b.delta(0)))\n")
    contexts = tmp_path / "contexts.txt"
    contexts.write_text("# none\n")
    code, out, _ = run_cli(
        capsys,
        "probe-congruence",
        str(CORPUS / "cx23.ptss"),
        "--pairs",
        str(pairs),
        "--contexts",
        str(contexts),
    )
    assert code == EXIT_OK


def test_corpus_run_full(capsys):
    code, out, _ = run_cli(capsys, "corpus-run", str(CORPUS))
    assert "summary:" in out
    assert code == EXIT_OK, out
    assert "FAIL" not in out


def test_corpus_run_deterministic_output(tmp_path, capsys):
    for name in ("weak_trans.pts", "mixed_choice.pts", "running.ptss", "cx23.ptss"):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    _, out1, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    _, out2, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert out1 == out2 and "FAIL" not in out1


def test_corpus_run_flipped_expectation(tmp_path, capsys):
    target = tmp_path / "flipped.pts"
    text = (CORPUS / "mixed_choice.pts").read_text().replace(
        "# expect bisim branching t0 u1: no", "# expect bisim branching t0 u1: yes"
    )
    target.write_text(text)
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_NEGATIVE
    assert "flipped.pts" in out and "FAIL" in out


def test_corpus_run_empty_directory(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_OK
    assert "summary: 0 expectations, 0 failed" in out


def test_corpus_run_malformed_header(tmp_path, capsys):
    bad = tmp_path / "bad.pts"
    bad.write_text("# expect nonsense: yes\nstate s\n")
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("line, form", [
    ("# expect complete f: yes", "complete"),
    ("# expect format extra words: pass", "format"),
    ("# expect violation junk: g_neg 2a", "violation: <rule> <cond>"),
])
def test_words_an_expectation_does_not_take_are_a_diagnostic(tmp_path, capsys, line, form):
    # these kinds take no words before the colon; such words were dropped silently
    (tmp_path / "x.ptss").write_text(f"# roots: 0\n# expect format: pass\n{line}\n" + RUNNING_SPEC)
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    error = f"{tmp_path / 'x.ptss'}:3: error: expected '{form}'"
    assert (code, out) == (EXIT_USAGE, f"{error}\nsummary: 0 expectations, 1 failed\n")


def test_expectations_are_checked_in_file_order(tmp_path, capsys):
    # the unknown state of line 1 is reported, not the stray word of line 2
    text = (CORPUS / "mixed_choice.pts").read_text()
    (tmp_path / "m.pts").write_text("# expect bisim branching t0 zz: yes\n# expect bisim branching t0 u1 u2: no\n" + text)
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert (code, out.splitlines()[0]) == (EXIT_USAGE, f"{tmp_path / 'm.pts'}:1: error: unknown state 't0' or 'zz'")


def test_bisim_reports_the_pair_before_the_roots(capsys):
    code, out, err = run_cli(capsys, "bisim", str(CORPUS / "running.ptss"), "--kind", "branching", "q(0)", "0",
                             "--root", "zz(0)")
    assert (code, out, err) == (EXIT_USAGE, "", "argument s 'q(0)':1:1: error: unknown operator q\n")


def _corpus_files(capsys, directory):
    """The `--json` payload's files of `corpus-run directory`."""
    code, out, _ = run_cli(capsys, "corpus-run", str(directory), "--json")
    assert code in (EXIT_OK, EXIT_NEGATIVE)
    return json.loads(out)["files"]


_VERDICT = {EXIT_OK: "yes", EXIT_NEGATIVE: "no"}


@pytest.mark.parametrize("name", ["mixed_choice.pts", "tau_tree.pts", "weak_trans.pts"])
def test_corpus_run_and_bisim_agree_on_every_pair_of_a_pts_file(tmp_path, capsys, name):
    text = (CORPUS / name).read_text()
    states = [line.split()[1] for line in text.splitlines() if line.startswith("state ")]
    assert len(states) in (6, 9, 10)
    questions = [(kind, s, t) for kind in KINDS for s in states for t in states]
    (tmp_path / name).write_text("".join(f"# expect bisim {k} {s} {t}: yes\n" for k, s, t in questions) + text)
    (file,) = _corpus_files(capsys, tmp_path)
    assert len(file["expectations"]) >= len(questions)  # the file's own expectations follow
    for (kind, s, t), row in zip(questions, file["expectations"]):
        code, _, _ = run_cli(capsys, "bisim", str(CORPUS / name), "--kind", kind, s, t)
        assert (row["detail"], row["actual"]) == (f"{kind} {s} {t}", _VERDICT[code])


def test_corpus_run_and_bisim_agree_on_the_corpus_specs(capsys):
    checked = 0
    for file in _corpus_files(capsys, CORPUS):
        lines = Path(file["path"]).read_text().splitlines()
        roots = [w for line in lines if line.startswith("# roots:") for w in line[len("# roots:"):].split()]
        for row in file["expectations"]:
            if row["kind"] == "bisim" and file["path"].endswith(".ptss"):
                kind, s, t = row["detail"].split()
                code, _, _ = run_cli(capsys, "bisim", file["path"], "--kind", kind, s, t, "--max-depth", "10",
                                     *(arg for root in roots for arg in ("--root", root)))
                assert row["actual"] == _VERDICT[code], (file["path"], row)
                checked += 1
    assert checked == 4


def test_pts_negative_entry_is_a_diagnostic(tmp_path, capsys):
    bad = tmp_path / "neg.pts"
    bad.write_text("state s\nstate t\ntrans s --a-> { t: -1/2, s: 3/2 }\n")
    code, _, err = run_cli(capsys, "bisim", str(bad), "--kind", "branching", "s", "t")
    assert code == EXIT_USAGE
    assert err.startswith(f"{bad}:3:") and "unexpected character '-'" in err
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_USAGE
    assert "unexpected character '-'" in out and "Traceback" not in out


@pytest.mark.parametrize("flag", ["--max-states", "--max-depth", "--max-iterations"])
def test_nonpositive_bound_flag_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["bisim", str(CORPUS / "mixed_choice.pts"), "--kind", "branching", "t0", "u1", flag, "0"])
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}: expected a positive integer, got '0'" in capsys.readouterr().err


def test_the_parser_built_once_keeps_no_state_between_calls(capsys):
    # the parser is built once per process: a usage error after good calls
    # reads as it does in a fresh process, and no --root carries over
    bad = ["pts", str(CORPUS / "running.ptss"), "--max-depth", "0"]
    with capped_python(["-m", "ptsskit.cli", *bad], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as fresh:
        fresh_out, fresh_err = fresh.communicate(timeout=60)
    assert fresh.returncode == EXIT_USAGE
    assert run_cli(capsys, "pts", str(CORPUS / "running.ptss"), "--root", "a.delta(0)")[0] == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr() == (fresh_out, fresh_err)
    code, _, err = run_cli(capsys, "pts", str(CORPUS / "running.ptss"))
    assert (code, err) == (EXIT_USAGE, "error: pts needs at least one --root\n")


def test_term_argument_errors_name_the_argument(tmp_path, capsys):
    spec = str(CORPUS / "running.ptss")
    root = "a.oplus{-1/2:delta(0),3/2:delta(0)}"
    code, _, err = run_cli(capsys, "pts", spec, "--root", root)
    assert code == EXIT_USAGE
    assert err == f"--root '{root}':1:9: error: unexpected character '-'\n"
    code, _, err = run_cli(capsys, "bisim", spec, "--kind", "branching", "a.delta(0)", "b.delta(x")
    assert code == EXIT_USAGE
    assert err == "argument t 'b.delta(x':1:10: error: expected ')'\n"
    pairs, contexts = tmp_path / "pairs.txt", tmp_path / "contexts.txt"
    pairs.write_text("a.delta(0) b.delta(0)\n# comment\na.delta(0) q(\n")
    contexts.write_text("+(_,0)\n")
    code, _, err = run_cli(
        capsys, "probe-congruence", spec, "--pairs", str(pairs), "--contexts", str(contexts)
    )
    assert code == EXIT_USAGE
    assert err.startswith(f"{pairs}:3:")
    # a term in an expectation names the file and the expectation's line
    (tmp_path / "x.ptss").write_text(
        "# expect bisim branching b.delta(0) tau.delta(b.delta(0: yes\n" + RUNNING_SPEC
    )
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_USAGE
    assert f"{tmp_path / 'x.ptss'}:1:" in out


def test_pts_state_names_may_contain_dashes(tmp_path, capsys):
    path = tmp_path / "dashes.pts"
    path.write_text("state a--b\nstate c\ntrans a--b --tau-> { c: 1 }\ntrans c --a-> { a--b: 1 }\n")
    code, out, _ = run_cli(capsys, "bisim", str(path), "--kind", "branching", "a--b", "a--b")
    assert code == EXIT_OK
    assert "branching: a--b ~ a--b: YES" in out


@pytest.mark.parametrize("arrow, label", [
    ("--->", ""), ("-- a b ->", "a b"), ("--a-b->", "a-b"), ("--1a->", "1a"), ("--<A>->", "<A>"), ("--é->", "é"),
])
def test_pts_labels_are_action_names(tmp_path, capsys, arrow, label):
    # any text between `--` and `->` was once a label, and export_pts wrote it back out
    path = tmp_path / "labels.pts"
    path.write_text(f"state s\nstate t\ntrans s {arrow} {{ t: 1 }}\ntrans t -- a -> {{ s: 1 }}\n")
    code, out, err = run_cli(capsys, "bisim", str(path), "--kind", "branching", "s", "t")
    assert (code, out, err) == (EXIT_USAGE, "", f"{path}:3:1: error: label {label!r} is not an action name\n")


def _prefix_chain(n):
    return "a.delta(" * n + "0" + ")" * n


@pytest.mark.parametrize("n", [1500, 5000])
def test_deeply_nested_root_is_a_diagnostic(tmp_path, capsys, n):
    spec, root = str(CORPUS / "running.ptss"), _prefix_chain(n)
    nested = f"error: term nested more than {MAX_NESTING} levels deep"
    # the parser stops at the first token past the bound, 400 prefixes in
    col = 8 * (MAX_NESTING // 2) + 3
    code, out, err = run_cli(capsys, "pts", spec, "--root", root, "--max-depth", "5000")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"--root '{root}':1:{col}: {nested}\n"
    path = tmp_path / "deep.ptss"
    path.write_text(f"# roots: {root}\n# expect complete: yes\n" + RUNNING_SPEC)
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_USAGE
    assert f"{path}:1:{col + len('# roots: ')}: {nested}" in out and "Traceback" not in out


@pytest.mark.parametrize("shape, levels", [
    ("a.delta({})", 2),  # an operand is one level
    ("+({},0)", 2),  # an argument of an operator two
    ("a.oplus{{1:delta({})}}", 4),  # and so is an oplus branch
])
def test_terms_at_the_nesting_bound_run_through(capsys, shape, levels):
    spec, root = str(CORPUS / "running.ptss"), "0"
    for _ in range(MAX_NESTING // levels):
        root = shape.format(root)
    code, out, _ = run_cli(capsys, "stable-model", spec, "--root", root, "--max-depth", "5000")
    assert code == EXIT_OK and "complete: yes" in out
    code, _, err = run_cli(capsys, "stable-model", spec, "--root", shape.format(root), "--max-depth", "5000")
    assert code == EXIT_USAGE and "levels deep" in err



def test_deep_conclusion_target_is_instantiated(tmp_path, capsys):
    # the target nests x 390 prefixes deep, inside the nesting bound; each
    # instance is built by substitute, whose walk is iterative
    path = tmp_path / "deep_target.ptss"
    target = "delta(" + "a.delta(" * 390 + "x" + ")" * 391
    path.write_text(
        "ptss deep\nactions a, tau\nop 0 : -> s\nop g : s -> s\nop pre<A> : d -> s\n"
        f"rule prefix: <A>.mu --<A>-> mu\nrule r: g(x) --a-> {target}\n"
    )
    code, out, err = run_cli(capsys, "pts", str(path), "--root", "g(0)", "--max-depth", "2000")
    assert (code, err) == (EXIT_OK, "")
    assert out.count("state ") == 392 and out.count("trans ") == 391
    code, out, err = run_cli(capsys, "pts", str(path), "--root", "g(0)")
    assert (code, out) == (EXIT_BOUNDS, "")
    assert err.startswith("error: conclusion target exceeds max depth: delta(a.delta(")
    assert err.endswith("... (depth 782)\n") and err.count("\n") == 1


def _bad_input_files(tmp_path):
    (tmp_path / "open_pairs.txt").write_text("x y\n")
    (tmp_path / "pairs.txt").write_text("a.delta(0) a.delta(0)\n")
    (tmp_path / "contexts.txt").write_text("+(_,0)\n")
    (tmp_path / "dist_contexts.txt").write_text("delta(_)\n")
    latin1 = RUNNING_SPEC.replace("running", "caf\xe9").encode("latin-1")
    (tmp_path / "latin1.ptss").write_bytes(latin1)
    (tmp_path / "dir.ptss").mkdir()
    # corpus directories whose bad.ptss fails and whose good.ptss passes
    for name in ("roots", "latin1", "dir", "states"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "good.ptss").write_text("# roots: 0\n# expect complete: yes\n" + RUNNING_SPEC)
    (tmp_path / "roots" / "bad.ptss").write_text("# roots: x\n# expect complete: yes\n" + RUNNING_SPEC)
    (tmp_path / "latin1" / "bad.ptss").write_bytes(latin1)
    (tmp_path / "dir" / "bad.ptss").mkdir()
    (tmp_path / "states" / "bad.pts").write_text("# expect bisim rooted s zz: yes\nstate s\n")


_LONG_INT = "1" * 5000


@pytest.mark.parametrize("argv, message", [
    pytest.param(["pts", "{running}", "--root", "x"], "error: root must be a closed state term: x", id="open-root"),
    pytest.param(["bisim", "{running}", "--kind", "branching", "delta(0)", "0"],
                 "error: root must be a closed state term: delta(0)", id="distribution-root"),
    pytest.param(["probe-congruence", "{running}", "--pairs", "{tmp}/open_pairs.txt", "--contexts",
                  "{tmp}/contexts.txt"], "error: root must be a closed state term: x", id="open-pair"),
    pytest.param(["probe-congruence", "{running}", "--pairs", "{tmp}/pairs.txt", "--contexts",
                  "{tmp}/dist_contexts.txt"], "error: root must be a closed state term: delta(a.delta(0))",
                 id="distribution-context"),
    pytest.param(["pts", "{running}", "--root", "a.oplus{{" + _LONG_INT + ":delta(0)}}"],
                 "--root 'a.oplus{{" + _LONG_INT + ":delta(0)}}':1:9: error: integer has more than 4300 digits",
                 id="long-weight"),
    pytest.param(["check-format", "{tmp}/latin1.ptss"], "{tmp}/latin1.ptss: error: cannot read: 'utf-8' codec can't decode",
                 id="non-utf8"),
    pytest.param(["check-format", "{tmp}/dir.ptss"], "{tmp}/dir.ptss: error: cannot read: Is a directory",
                 id="directory"),
    pytest.param(["pts", "{running}", "--root", "0", "-o", "{tmp}/missing/x.pts"],
                 "{tmp}/missing/x.pts: error: cannot write: No such file or directory", id="unwritable-out"),
    pytest.param(["corpus-run", "{tmp}/roots"], "{tmp}/roots/bad.ptss: error: root must be a closed state term: x",
                 id="corpus-open-root"),
    pytest.param(["corpus-run", "{tmp}/latin1"],
                 "{tmp}/latin1/bad.ptss: error: cannot read: 'utf-8'", id="corpus-non-utf8"),
    pytest.param(["corpus-run", "{tmp}/dir"], "{tmp}/dir/bad.ptss: error: cannot read: Is a directory",
                 id="corpus-directory"),
    pytest.param(["corpus-run", "{tmp}/states"],
                 "{tmp}/states/bad.pts:1: error: unknown state 's' or 'zz'",
                 id="corpus-unknown-state"),
])
def test_bad_input_is_a_one_line_diagnostic(tmp_path, capsys, argv, message):
    _bad_input_files(tmp_path)
    fill = {"tmp": tmp_path, "running": CORPUS / "running.ptss"}
    argv = [arg.format(**fill) for arg in argv]
    message = message.format(**fill)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    if argv[0] == "corpus-run":
        # the bad file is marked and the run goes on to the next one
        lines = out.splitlines()
        assert lines[0].startswith(message) and err == ""
        assert lines[1:] == [
            f"{argv[1]}/good.ptss:2: complete: expected yes, got yes: PASS",
            "summary: 1 expectations, 1 failed",
        ]
    else:
        assert out == "" and err.startswith(message) and err.count("\n") == 1


_A, _B = 10**2999 + 1, 10**2999 + 3  # coprime, so 1/_A + 1/_B has a 6,000-digit denominator
_HUGE_ROOT = f"a.oplus{{1/{_A}:delta(0),1/{_B}:delta(b.delta(0))}}"
_NOT_A_WEIGHT = "error: a probability is an integer or p/q"


@pytest.mark.parametrize("entries, diagnostic", [
    pytest.param("t: 1e99999", f"aut.pts:4:21: {_NOT_A_WEIGHT}", id="exponent"),
    pytest.param("t: 1e999999999", f"aut.pts:4:21: {_NOT_A_WEIGHT}", id="huge-exponent"),
    pytest.param("t: 0.5, s: 0.5", f"aut.pts:4:21: {_NOT_A_WEIGHT}", id="decimal"),
    pytest.param("t: -1/2, s: 3/2", "aut.pts:4:20: error: unexpected character '-'", id="negative"),
    pytest.param("t: 1/0", "aut.pts:4:22: error: weight denominator is zero", id="zero-denominator"),
    pytest.param("t: , s: 1", "aut.pts:4:20: error: expected a probability", id="empty"),
    pytest.param(f"t: 1/{_A}, u: 1/{_B}, s: 1", "aut.pts:4:1: error: total mass exceeds 1", id="huge-mass-pts"),
    pytest.param("t: 1/3", "aut.pts:4:1: error: distribution mass is 1/3, expected 1", id="mass-below-1"),
    pytest.param("t: 2/3, u: 2/3", "aut.pts:4:1: error: total mass exceeds 1", id="mass-above-1"),
    pytest.param("t: 0", "aut.pts:4:1: error: distribution mass is 0, expected 1", id="mass-0"),
    pytest.param(None, f"--root '{_HUGE_ROOT}':1:3: error: weights sum to a number of over 40 digits, expected 1",
                 id="huge-mass-ptss"),
])
def test_numeric_input_is_one_diagnostic_in_bounded_time(tmp_path, entries, diagnostic):
    # a fresh interpreter with a time limit, so that a hang fails the test
    if entries is None:
        argv = ["pts", str(CORPUS / "running.ptss"), "--root", _HUGE_ROOT]
    else:
        (tmp_path / "aut.pts").write_text("state s\nstate t\nstate u\ntrans s --a-> { " + entries + " }\n")
        argv = ["bisim", "aut.pts", "--kind", "branching", "s", "t"]
    with capped_python(["-m", "ptsskit.cli", *argv], cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
    assert (proc.returncode, out, err) == (EXIT_USAGE, "", diagnostic + "\n")


def test_corpus_run_probe_precondition_is_a_usage_error(tmp_path, capsys):
    # the pair is not related before wrapping, so the probe's precondition
    # fails: exit 2, as probe-congruence gives for it
    (tmp_path / "p.ptss").write_text(
        "# expect probe rooted +(_,0) a.delta(0) b.delta(0): ok\n" + RUNNING_SPEC
    )
    code, out, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_USAGE
    assert f"{tmp_path / 'p.ptss'}: error: probe precondition failed" in out


def test_term_diagnostics_give_the_column_in_the_file_line(tmp_path, capsys):
    spec = str(CORPUS / "running.ptss")
    _, _, err = run_cli(capsys, "pts", spec, "--root", "q(0)")
    col = int(err.split(":")[2])  # the column of the error inside the term
    files = {
        "pairs.txt": "0 0\n", "bad_pairs.txt": "0 0\n  a.delta(0)   q(0)\n",
        "contexts.txt": "+(_,0)\n", "bad_contexts.txt": "\n   q(0)\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for pairs, contexts, bad, offset in [
        ("bad_pairs.txt", "contexts.txt", "bad_pairs.txt", 15),
        ("pairs.txt", "bad_contexts.txt", "bad_contexts.txt", 3),
    ]:
        code, _, err = run_cli(capsys, "probe-congruence", spec, "--pairs", str(tmp_path / pairs),
                               "--contexts", str(tmp_path / contexts))
        assert code == EXIT_USAGE and err.startswith(f"{tmp_path / bad}:2:{offset + col}: error:")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "x.ptss").write_text("  # expect bisim branching 0  q(0): yes\n" + RUNNING_SPEC)
    code, out, _ = run_cli(capsys, "corpus-run", str(corpus))
    assert code == EXIT_USAGE and f"{corpus / 'x.ptss'}:1:{30 + col}: error:" in out


def _capped_cli(argv, cwd, seconds):
    """`ptsskit` in a fresh, memory-capped interpreter, killed after `seconds`."""
    with capped_python(["-m", "ptsskit.cli", *argv], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=seconds)
        finally:
            proc.kill()
    return proc.returncode, out, err


def test_probability_of_4300_digits_is_a_diagnostic(tmp_path):
    # each weight has 3,000 digits, which the parser accepts; the lifted
    # ^g(mu,mu) of rule f_a squares the denominators, and a 6,000-digit
    # probability has no str for the sort key or the output
    root = f"f(a.oplus{{1/{_A}:delta(b.delta(0)),{_A - 1}/{_A}:delta(c.delta(0))}})"
    argv = ["pts", str(CORPUS / "final_pb.ptss"), "--root", root]
    assert _capped_cli(argv, tmp_path, 20) == (EXIT_USAGE, "", "error: a probability has 4300 digits or more\n")


@pytest.mark.parametrize("kind", ["branching", "rooted"])
def test_bisim_on_a_401_state_chain_finishes(tmp_path, kind):
    # the pair-deleting fixpoint re-checked all 401² pairs on each of 400
    # sweeps and did not finish in 120 s
    root = "0"
    for _ in range(400):
        root = f"a.delta({root})"
    argv = ["bisim", str(CORPUS / "running.ptss"), "--kind", kind, root, root, "--max-depth", "5000"]
    code, out, err = _capped_cli(argv, tmp_path, 20)
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith(": YES\n") and out.count("class: ") == (401 if kind == "branching" else 0)


# negative premises over the product of tests/test_index.py: th passes a and
# tau steps on only where no b step is possible
TH_SPEC = PRODUCT_SPEC.replace("op par", "op th : s -> s\nop par") + (
    "rule th_b: x --b-> mu |- th(x) --b-> ^th(mu)\n"
    "rule th_a: x --a-> mu, x -/b-> |- th(x) --a-> ^th(mu)\n"
    "rule th_t: x --tau-> mu, x -/b-> |- th(x) --tau-> ^th(mu)\n"
)


@pytest.mark.parametrize("command", [["stable-model", "--json"], ["pts"]])
@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_pipe_is_one_diagnostic(monkeypatch, tmp_path, command, unbuffered):
    # the answer (321,692 bytes of JSON, or a PTS text of 107,109 ending in a
    # newline) fills the pipe; the reader takes 100 bytes and closes it, as
    # `| head -c 100` does: exit 2 and one line on stderr, as for an
    # unwritable `pts -o`, not a traceback and exit 1, nor a silent exit 0
    # when stdout is unbuffered and a write is cut short
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    (tmp_path / "th.ptss").write_text(TH_SPEC)
    root = COMPONENT
    for _ in range(3):
        root = f"par({COMPONENT},{root})"
    argv = [command[0], "th.ptss", "--root", f"th({root})", "--max-depth", "64", "--max-states", "100000", *command[1:]]
    with capped_python(["-m", "ptsskit.cli", *argv], cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (EXIT_USAGE, "error: cannot write: Broken pipe\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count descriptors in")
def test_a_closed_stdout_pipe_leaves_no_descriptor_open(monkeypatch):
    # each write meets a pipe whose reader has gone: one diagnostic each, and
    # the devnull that takes the pipe's place is opened and closed again
    def descriptors():
        return len(os.listdir("/proc/self/fd"))

    before = descriptors()
    for _ in range(5):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            with pytest.raises(PtssError, match="^cannot write: Broken pipe$"):
                cli._emit("an answer")
        monkeypatch.undo()
    assert descriptors() == before


CROSS_PROCESS_RUNS = [
    (["corpus-run", "corpus", "--json"], EXIT_OK),
    (["pts", "corpus/running.ptss", "--root", "+(a.delta(b.delta(0)),+(b.delta(tau.delta(0)),tau.delta(a.delta(0))))"],
     EXIT_OK),
    (["stable-model", "corpus/delayed_g.ptss", "--root", "g", "--json"], EXIT_OK),  # a negative premise
    *((["bisim", "corpus/mixed_choice.pts", "--kind", kind, "t1", "t2", "--json"], EXIT_NEGATIVE) for kind in KINDS),
]


@pytest.mark.parametrize("argv, code", CROSS_PROCESS_RUNS)
def test_output_is_byte_identical_across_processes(monkeypatch, argv, code):
    # every other test sees one hash seed and one memory layout; term nodes
    # hash by address and symbols by their name's string hash, so only the
    # explicit sorts keep the output the same from one process to the next
    procs = []
    for seed in "0123":
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        procs.append(capped_python(["-m", "ptsskit.cli", *argv], cwd=CORPUS.parent,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    runs = set()
    for proc in procs:
        with proc:
            out, err = proc.communicate(timeout=60)
        runs.add((proc.returncode, hashlib.sha256(out.encode()).hexdigest(), err))
        if "--json" in argv:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert len(runs) == 1
    assert next(iter(runs))[0] == code
