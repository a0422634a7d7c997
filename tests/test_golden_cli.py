"""`ptsskit stable-model`, `probe-congruence` and `corpus-run` output pinned
byte for byte, text and `--json`: stdout, stderr and exit code of answers, a
tripped bound, a model that does not converge, failed expectations and the
usage errors (a missing `--root`, an unknown `.pts` state, a malformed
expectation, a bad pairs line, an unreadable file, an empty path, which is
named as given, a context without its hole).  `bisim` and `check-format` are
here for their usage errors, each parse error of a declaration or a rule line
that no other test reaches, a conclusion whose source is not an operator, and
`.pts` bodies with a stray comma, which load as without it; their other
answers are pinned in `golden_bisim.json` and `golden_format.json`.  `bisim`
is also here for what only these cases run through the CLI: the pbranching
sweeps (a system whose greatest fixpoint is not transitive, whose NO answer
has a witness, and one whose classes overlap), the inert steps of a branching
witness, `.pts` bodies that hold brackets, a repeated target state, which
sums, and the `.pts` diagnostics of a state line or an entry; `stable-model`
for premise targets matched against a pattern under bound sources and for a
premise source that nothing binds.  `pts` is here for bound values that
`int()` refuses though they are digits, which argparse words as any other
value that is not a positive integer, in usage lines wrapped at 80 columns,
and for a model that does not converge.

Every case runs in a folder that holds the files of `populate`, with paths
relative to it, so that no message names a temporary folder.  Re-record (only
when the output is meant to change) with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden_cli.json"

_PAIR = "a.delta(b.delta(0)) a.delta(tau.delta(b.delta(0)))\n"
_PB_PAIR = (
    "+(a.delta(b.delta(0)),a.delta(c.delta(0)))"
    " +(+(a.delta(b.delta(0)),a.delta(c.delta(0))),a.oplus{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))})\n"
)
_RUNNING = (CORPUS / "running.ptss").read_text()
_BARE = "".join(line for line in _RUNNING.splitlines(keepends=True) if not line.startswith("#"))
_GOOD = "# roots: 0\n# expect complete: yes\n" + _BARE
_DEEP = "a.delta(" * 12 + "0" + ")" * 12
_HEAD = "ptss x\nactions a, tau\nop pre<A> : d -> s\nop 0 : -> s\n"
# NOT_TRANSITIVE of tests/test_refine_oracle.py, with its states declared
_NOT_TRANSITIVE = "".join(f"state r{i}\n" for i in range(4)) + (
    "trans r0 --tau-> { r0: 1/2, r3: 1/2 }\ntrans r0 --tau-> { r3: 1/4, r1: 3/4 }\n"
    "trans r1 --b-> { r2: 3/4, r1: 1/4 }\ntrans r2 --tau-> { r1: 1 }\ntrans r2 --a-> { r0: 1 }\n"
    "trans r3 --tau-> { r3: 1/2, r2: 1/2 }\n"
)
# draw 2611 of the tau-heavy family of tests/test_partition_oracle.py, whose
# pbranching classes overlap
_DRAW_2611 = "".join(f"state r{i}\n" for i in range(4)) + (
    "trans r0 --a-> { r0: 1/2, r1: 1/2 }\ntrans r0 --tau-> { r3: 1 }\ntrans r1 --tau-> { r0: 1 }\n"
    "trans r1 --tau-> { r3: 1 }\ntrans r2 --tau-> { r0: 3/4, r3: 1/4 }\ntrans r2 --tau-> { r1: 1/2, r2: 1/2 }\n"
    "trans r3 --b-> { r0: 3/4, r2: 1/4 }\n"
)
# t matches s's challenges only after its inert step to w
_INERT_STEP = "state s\nstate t\nstate w\nstate x\n" + "".join(
    f"trans {u} --{a}-> {{ x: 1 }}\n" for u in "sw" for a in "ab"
) + "trans t --tau-> { w: 1 }\ntrans t --c-> { x: 1 }\n"
# what `pts` writes for corpus/running.ptss from _SUM: state names hold brackets
_SUM = "+(a.oplus{1/2:delta(b.delta(0)),1/2:delta(0)},tau.delta(a.delta(0)))"
_BRACKETED = (
    f"state {_SUM}\nstate 0\nstate a.delta(0)\nstate b.delta(0)\n"
    f"trans {_SUM} --a-> {{ 0: 1/2, b.delta(0): 1/2 }}\ntrans {_SUM} --tau-> {{ a.delta(0): 1 }}\n"
    "trans a.delta(0) --a-> { 0: 1 }\ntrans b.delta(0) --b-> { 0: 1 }\n"
)
# BOUND_PREMISE_SPEC of tests/test_engine_oracle.py: premise targets matched
# against a pattern under bound sources, one of which the rule builds; with
# its `open` rule, a premise source that nothing binds
_BOUND_PREMISE = _BARE.replace("rule prefix", "op h : -> s\nop f : s -> s\nop g : s s -> s\nrule prefix") + (
    "rule spin: h --a-> delta(h)\n"
    "rule loop: x --a-> delta(x) |- f(x) --b-> delta(x)\n"
    "rule pair: z --a-> delta(x) |- g(x,z) --a-> delta(z)\n"
    "rule meet: f(x) --b-> delta(x) |- g(x,z) --b-> delta(z)\n"
)
_BOUND_PREMISE_ROOTS = [
    arg for root in ("g(0,a.delta(0))", "g(h,a.delta(0))", "g(h,a.delta(h))", "f(a.delta(h))") for arg in ("--root", root)
]


def _flipped(name: str, old: str, new: str) -> str:
    text = (CORPUS / name).read_text()
    assert old in text, (name, old)
    return text.replace(old, new)


# path -> text, bytes, or None for a directory; `corpus/` is a copy of the corpus
FILES = {
    "pairs.txt": "# one pair\n" + _PAIR,
    "pb_pairs.txt": _PB_PAIR,
    "contexts.txt": "f(_)\n\n  g(_,0)\n",
    "f_context.txt": "f(_)\n",
    "no_contexts.txt": "# none\n",
    "three_words.txt": "a.delta(0) b.delta(0) 0\n",
    "bad_term_pairs.txt": _PAIR + "  a.delta(0)   a.delta(\n",
    "contexts_dir": None,
    "bad.ptss": "ptss bad\nactions tau\nrule r: q(x) --tau-> mu\n",
    "latin1.ptss": _RUNNING.replace("running", "caf\xe9").encode("latin-1"),
    "empty": None,
    "failed/cx2.ptss": _flipped("cx2.ptss", "# expect violation: g_b 2b", "# expect violation: g_b 2a"),
    "failed/cx23.ptss": _flipped("cx23.ptss", "# expect format: pass", "# expect format: fail"),
    "failed/mixed_choice.pts": _flipped(
        "mixed_choice.pts", "# expect bisim branching t0 u1: no", "# expect bisim branching t0 u1: yes"
    ),
    "failed/running.ptss": _flipped("running.ptss", "# expect complete: yes", "# expect complete: no"),
    "malformed/a_colon.ptss": "# expect format pass\n" + _BARE,
    "malformed/b_empty.ptss": "# expect format:\n" + _BARE,
    "malformed/c_kind.ptss": "# expect strong a.delta(0): yes\n" + _BARE,
    "malformed/d_bisim_kind.pts": "# expect bisim strong s s: yes\nstate s\n",
    "malformed/e_violation.ptss": "# expect format: pass\n# expect violation: prefix\n" + _BARE,
    "malformed/f_bisim_words.ptss": "# expect bisim rooted 0: yes\n" + _BARE,
    "malformed/g_bisim_words.pts": "# expect bisim rooted s: yes\nstate s\n",
    "malformed/h_probe_words.ptss": "# expect probe rooted +(_,0) 0: ok\n" + _BARE,
    "malformed/i_no_roots.ptss": "# expect format: pass\n# expect complete: yes\n" + _BARE,
    "malformed/j_pts_format.pts": "# expect format: pass\nstate s\n",
    "malformed/k_parse.ptss": "# expect format: pass\nptss bad\nactions tau\nrule r: q(x) --tau-> mu\n",
    "malformed/z_good.ptss": _GOOD,
    "states/bad.pts": "# expect bisim rooted s t: yes\n# expect bisim rooted s zz: yes\nstate s\nstate t\n",
    "states/good.ptss": _GOOD,
    "unreadable/a_latin1.ptss": _RUNNING.replace("running", "caf\xe9").encode("latin-1"),
    "unreadable/b_dir.ptss": None,
    "unreadable/good.ptss": _GOOD,
    "bound/deep.ptss": f"# roots: {_DEEP}\n# expect complete: yes\n" + _BARE,
    "bound/good.ptss": _GOOD,
    "no_hole.txt": "f(0)\n",
    "trailing_comma.pts": "state s\nstate t\nstate v\ntrans s --a-> { t: 1, }\ntrans v --b-> {t: 1}\n",
    "leading_comma.pts": "state s\nstate t\nstate v\ntrans s --a-> { , t: 1 }\ntrans v --b-> {t: 1}\n",
    "diagnostics/rule_name.ptss": _HEAD + "rule r@ : 0 --a-> delta(0)\n",
    "diagnostics/turnstile.ptss": _HEAD + "rule r: x --a-> mu |- x --a-> nu |- 0 --a-> mu\n",
    "diagnostics/conclusion.ptss": _HEAD + "rule r: x --a-> mu |- 0 --a-> mu, 0 --a-> nu\n",
    "diagnostics/ptss.ptss": "ptss x\nptss y\nactions a, tau\nop 0 : -> s\n",
    "diagnostics/order.ptss": _HEAD + "rule r: a.mu --a-> mu\nop 1 : -> s\n",
    "diagnostics/family.ptss": "ptss x\nactions a, tau\nop pre<A> : s -> s\n",
    "diagnostics/collision.ptss": "ptss x\nactions a, tau\nop a : -> s\n",
    "diagnostics/duplicate_op.ptss": _HEAD + "op 0 : -> s\n",
    "diagnostics/shape.ptss": "ptss v\nactions a, tau\nrule r: x --a-> delta(x)\n",
    "diagnostics/states.pts": "state s\nstate t\nstate s\ntrans s --a-> { t: 1/2, u: 1/2 }\n"
                              "trans t --a-> { s: 1, t }\ntrans t --b-> { s: 1/2 : t }\n",
    "repeated_target.pts": "state s\nstate t\nstate v\ntrans s --a-> { t: 1/2, t: 1/2 }\ntrans v --b-> {t: 1}\n",
    "not_transitive.pts": _NOT_TRANSITIVE,
    "draw_2611.pts": _DRAW_2611,
    "inert_step.pts": _INERT_STEP,
    "bracketed.pts": _BRACKETED,
    "bound_premise.ptss": _BOUND_PREMISE,
    "open_premise.ptss": _BOUND_PREMISE + "rule open: y --a-> delta(x) |- g(x,z) --a-> delta(y)\n",
}

_R = "corpus/running.ptss"

# name -> argv; each case runs as given and with `--json`
CASES = {
    "stable-model/complete": ["stable-model", _R, "--root", "+(a.delta(0),b.delta(0))", "--root",
                              "a.delta(tau.delta(0))"],
    "stable-model/incomplete": ["stable-model", "corpus/incomplete_f.ptss", "--root", "f"],
    "stable-model/negative-premise": ["stable-model", "corpus/delayed_g.ptss", "--root", "g"],
    "stable-model/not-converged": ["stable-model", "corpus/delayed_g.ptss", "--root", "g", "--max-iterations", "1"],
    "stable-model/depth-bound": ["stable-model", _R, "--root", "a.delta(a.delta(0))", "--max-depth", "2"],
    "stable-model/states-bound": ["stable-model", _R, "--root", "+(a.delta(0),b.delta(0))", "--max-states", "2"],
    "stable-model/no-root": ["stable-model", _R],
    "stable-model/bad-root": ["stable-model", _R, "--root", "0", "--root", "a.delta(b)"],
    "stable-model/parse-error": ["stable-model", "bad.ptss", "--root", "0"],
    "stable-model/missing-file": ["stable-model", "missing.ptss", "--root", "0"],
    "stable-model/non-utf8": ["stable-model", "latin1.ptss", "--root", "0"],
    "stable-model/empty-path": ["stable-model", "", "--root", "0"],
    "stable-model/premise-patterns": ["stable-model", "bound_premise.ptss", *_BOUND_PREMISE_ROOTS],
    "stable-model/open-premise-source": ["stable-model", "open_premise.ptss", *_BOUND_PREMISE_ROOTS],
    "check-format/empty-path": ["check-format", ""],
    "check-format/rule-name-part": ["check-format", "diagnostics/rule_name.ptss"],
    "check-format/duplicate-turnstile": ["check-format", "diagnostics/turnstile.ptss"],
    "check-format/two-conclusions": ["check-format", "diagnostics/conclusion.ptss"],
    "check-format/duplicate-ptss": ["check-format", "diagnostics/ptss.ptss"],
    "check-format/declaration-after-rule": ["check-format", "diagnostics/order.ptss"],
    "check-format/prefix-family-sorts": ["check-format", "diagnostics/family.ptss"],
    "check-format/operator-action-collision": ["check-format", "diagnostics/collision.ptss"],
    "check-format/duplicate-operator": ["check-format", "diagnostics/duplicate_op.ptss"],
    "check-format/source-not-an-application": ["check-format", "diagnostics/shape.ptss"],
    "probe/violation": ["probe-congruence", "corpus/cx2.ptss", "--pairs", "pairs.txt", "--contexts",
                        "contexts.txt", "--max-depth", "10"],
    "probe/no-violations": ["probe-congruence", "corpus/cx23.ptss", "--pairs", "pairs.txt", "--contexts",
                            "contexts.txt", "--max-depth", "10"],
    "probe/pbranching": ["probe-congruence", "corpus/final_pb.ptss", "--pairs", "pb_pairs.txt", "--contexts",
                         "f_context.txt", "--kind", "pbranching", "--max-depth", "10"],
    "probe/empty-contexts": ["probe-congruence", "corpus/cx23.ptss", "--pairs", "pairs.txt", "--contexts",
                             "no_contexts.txt"],
    "probe/bad-pairs-line": ["probe-congruence", "corpus/cx23.ptss", "--pairs", "three_words.txt", "--contexts",
                             "contexts.txt"],
    "probe/bad-pair-term": ["probe-congruence", "corpus/cx23.ptss", "--pairs", "bad_term_pairs.txt", "--contexts",
                            "contexts.txt"],
    "probe/depth-bound": ["probe-congruence", "corpus/cx2.ptss", "--pairs", "pairs.txt", "--contexts",
                          "contexts.txt", "--max-depth", "3"],
    "probe/missing-pairs": ["probe-congruence", "corpus/cx23.ptss", "--pairs", "missing.txt", "--contexts",
                            "contexts.txt"],
    "probe/unreadable-contexts": ["probe-congruence", "corpus/cx23.ptss", "--pairs", "pairs.txt", "--contexts",
                                  "contexts_dir"],
    "probe/empty-pairs-path": ["probe-congruence", "corpus/cx23.ptss", "--pairs", "", "--contexts", "contexts.txt"],
    "probe/context-without-hole": ["probe-congruence", "corpus/cx23.ptss", "--pairs", "pairs.txt", "--contexts",
                                   "no_hole.txt"],
    "bisim/unknown-state": ["bisim", "corpus/mixed_choice.pts", "--kind", "branching", "t0", "zz"],
    "bisim/empty-path": ["bisim", "", "--kind", "branching", "t0", "u1"],
    "bisim/trailing-comma": ["bisim", "trailing_comma.pts", "--kind", "branching", "s", "v"],
    "bisim/leading-comma": ["bisim", "leading_comma.pts", "--kind", "branching", "s", "v"],
    "bisim/repeated-target": ["bisim", "repeated_target.pts", "--kind", "branching", "s", "v"],
    "bisim/pts-diagnostics": ["bisim", "diagnostics/states.pts", "--kind", "branching", "s", "t"],
    "bisim/bracketed-bodies": ["bisim", "bracketed.pts", "--kind", "branching", _SUM, "a.delta(0)"],
    "bisim/branching-inert-step": ["bisim", "inert_step.pts", "--kind", "branching", "s", "t"],
    "bisim/pbranching-not-transitive": ["bisim", "not_transitive.pts", "--kind", "pbranching", "r0", "r3"],
    "bisim/pbranching-overlapping-classes": ["bisim", "draw_2611.pts", "--kind", "pbranching", "r0", "r2"],
    "corpus-run/corpus": ["corpus-run", "corpus"],
    "corpus-run/failed": ["corpus-run", "failed"],
    "corpus-run/malformed": ["corpus-run", "malformed"],
    "corpus-run/unknown-state": ["corpus-run", "states"],
    "corpus-run/unreadable": ["corpus-run", "unreadable"],
    "corpus-run/bound": ["corpus-run", "bound"],
    "corpus-run/empty": ["corpus-run", "empty"],
    "corpus-run/not-a-directory": ["corpus-run", _R],
    "corpus-run/missing": ["corpus-run", "missing"],
    "corpus-run/empty-path": ["corpus-run", ""],
    "pts/superscript-bound": ["pts", _R, "--root", "0", "--max-depth", "²"],
    "pts/bound-past-int-digits": ["pts", _R, "--root", "0", "--max-depth", "1" * 5000],
    "pts/not-converged": ["pts", _R, "--root", "a.delta(0)", "--max-iterations", "1"],
}


def populate(folder: Path) -> None:
    shutil.copytree(CORPUS, folder / "corpus")
    for name, content in FILES.items():
        path = folder / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


def run(argv: list[str]) -> dict:
    from ptsskit.cli import main

    outcome = {}
    for key, flags in (("text", []), ("json", ["--json"])):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
            try:
                code = main([*argv, *flags])
            except SystemExit as exc:  # a usage error
                code = exc.code
        outcome[key] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return outcome


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden_cli")
    populate(path)
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, folder, monkeypatch):
    monkeypatch.chdir(folder)
    assert run(CASES[name]) == json.loads(GOLDEN.read_text())[name]


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        populate(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            recorded = {name: run(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
