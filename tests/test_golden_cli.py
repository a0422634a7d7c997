"""`ptsskit stable-model`, `probe-congruence` and `corpus-run` output pinned
byte for byte, text and `--json`: stdout, stderr and exit code of answers, a
tripped bound, a model that does not converge, failed expectations and the
usage errors (a missing `--root`, an unknown `.pts` state, a malformed
expectation, a bad pairs line, an unreadable file, an empty path, which is
named as given).  `bisim` and `check-format` are here for their usage errors
only; their answers are pinned in `golden_bisim.json` and `golden_format.json`.
`pts` is here for bound values that `int()` refuses though they are digits;
argparse words them as any other value that is not a positive integer, in
usage lines wrapped at 80 columns.

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
    "check-format/empty-path": ["check-format", ""],
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
    "bisim/unknown-state": ["bisim", "corpus/mixed_choice.pts", "--kind", "branching", "t0", "zz"],
    "bisim/empty-path": ["bisim", "", "--kind", "branching", "t0", "u1"],
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
