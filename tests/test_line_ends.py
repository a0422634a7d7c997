"""Input files are read as bytes and split into lines by `str.splitlines`: a
`.ptss` file, a `.pts` file, a corpus directory and the `--pairs` and
`--contexts` files, written with CRLF or with lone-CR line ends, give the
stdout, stderr and exit code of their LF twins, diagnostics with their line
and column among them."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ptsskit.cli import main
from tests.conftest import CORPUS, RUNNING_SPEC

FILES = {
    **{f"corpus/{p.name}": p.read_text() for p in sorted(CORPUS.iterdir())},
    "bad.ptss": RUNNING_SPEC + "\n# a comment\n  rule bad: x --a-> mu |- +(x,y) --a-> $mu\n",
    "bad.pts": "state t0\n\nstate t1\ntrans t0 --a-> { t1: 1/2 }\n",
    "pairs.txt": "# pairs\n\n  a.delta(b.delta(0)) a.delta(tau.delta(b.delta(0)))\n",
    "contexts.txt": "f(_)\n\n   # none more\n",
    "bad_pairs.txt": "a.delta(0) a.delta(0)\n   a.delta(0) a.delta(\n",
}
ARGVS = [
    ["check-format", "corpus/cx2.ptss"],
    ["check-format", "corpus/cx23.ptss", "--json"],
    ["check-format", "bad.ptss"],
    ["pts", "corpus/running.ptss", "--root", "+(a.delta(b.delta(0)),tau.delta(a.delta(0)))"],
    ["pts", "bad.ptss", "--root", "0"],
    ["bisim", "corpus/running.ptss", "--kind", "rooted", "b.delta(0)", "tau.delta(b.delta(0))"],
    ["bisim", "corpus/mixed_choice.pts", "--kind", "pbranching", "t0", "u1", "--json"],
    ["bisim", "corpus/tau_tree.pts", "--kind", "branching", "t1", "t2"],
    ["bisim", "bad.pts", "--kind", "branching", "t0", "t1"],
    ["corpus-run", "corpus"],
    ["corpus-run", "corpus", "--json"],
    ["probe-congruence", "corpus/cx2.ptss", "--pairs", "pairs.txt", "--contexts", "contexts.txt", "--max-depth", "10"],
    ["probe-congruence", "corpus/cx2.ptss", "--pairs", "bad_pairs.txt", "--contexts", "contexts.txt"],
]


def outcomes(folder, end):
    """Each argv's exit code, stdout and stderr, run in `folder` on FILES written with `end`."""
    (folder / "corpus").mkdir(exist_ok=True)
    for name, text in FILES.items():
        (folder / name).write_bytes(text.replace("\n", end).encode("utf-8"))
    runs = []
    for argv in ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        runs.append((code, out.getvalue(), err.getvalue()))
    return runs


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_cr_line_ends_give_the_answers_of_lf(tmp_path, monkeypatch, end):
    assert not any("\r" in text for text in FILES.values())
    monkeypatch.chdir(tmp_path)
    want = outcomes(tmp_path, "\n")
    assert sorted({code for code, _, _ in want}) == [0, 1, 2]
    assert [err for _, _, err in want if err] == ["bad.ptss:11:40: error: unexpected character '$'\n"] * 2 + [
        "bad.pts:4:1: error: distribution mass is 1/2, expected 1\n", "bad_pairs.txt:2:23: error: expected a term\n"]
    assert outcomes(tmp_path, end) == want
