"""`ptsskit pts` output pinned byte for byte: every corpus spec on fixed
roots, and right-nested sums of n random prefix chains on `running.ptss`.
Each pinned export also loads back with `load_pts` and exports again to
the same text.

The expected output was recorded with the scan-every-transition engine that
`tests/reference_engine.py` keeps.  Re-record (only when the output is meant
to change) with

    PYTHONPATH=src python3 tests/test_golden_pts.py
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden_pts.json"

_BASE = ["0", "a.delta(b.delta(0))", "a.delta(tau.delta(b.delta(0)))", "+(a.delta(0),b.delta(0))"]

_F = ["f(a.delta(b.delta(0)))", "f(a.delta(tau.delta(b.delta(0))))"]

# roots per spec: its `# roots:` line and expectation terms, or, for specs
# without any, small terms over its operators
SPEC_ROOTS = {
    "cx2.ptss": _BASE + _F + ["g(0,tau.delta(a.delta(0)))"],
    "cx23.ptss": _BASE + _F + ["g(0,tau.delta(a.delta(0)))"],
    "cx235.ptss": _BASE + _F + ["h(b.delta(0),0)"],
    "cx236l.ptss": _BASE + _F + ["g(0,tau.delta(a.delta(0)))"],
    "cx236r.ptss": _BASE + _F + ["g(0,tau.delta(a.delta(0)))"],
    "cx4.ptss": _BASE + _F + ["h(b.delta(0))", "g(0,b.delta(0))"],
    "delayed_g.ptss": ["g"],
    "final_pb.ptss": [
        "f(+(a.delta(b.delta(0)),a.delta(c.delta(0))))",
        "f(+(+(a.delta(b.delta(0)),a.delta(c.delta(0))),a.oplus{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))}))",
    ],
    "incomplete_f.ptss": ["f"],
    "running.ptss": _BASE + ["a.delta(tau.delta(0))", "tau.delta(b.delta(0))"],
    "weak_trans_axioms.ptss": ["s0"],
}

CHAIN_SIZES = list(range(4, 15)) + [32]


def chain_root(n: int) -> str:
    """A right-nested `+` of n prefix chains of three random labels each."""
    rng = random.Random(f"golden-chains:{n}")
    chains = []
    for _ in range(n):
        text = "0"
        for label in [rng.choice(("a", "b", "tau")) for _ in range(3)]:
            text = f"{label}.delta({text})"
        chains.append(text)
    root = chains[-1]
    for c in reversed(chains[:-1]):
        root = f"+({c},{root})"
    return root


def cases() -> dict[str, list[str]]:
    out = {}
    for name, roots in sorted(SPEC_ROOTS.items()):
        argv = ["pts", str(CORPUS / name), "--max-depth", "10"]
        for r in roots:
            argv += ["--root", r]
        out[name] = argv
    for n in CHAIN_SIZES:
        out[f"chains/n{n}"] = [
            "pts", str(CORPUS / "running.ptss"), "--root", chain_root(n), "--max-depth", "64",
        ]
    return out


def run(argv: list[str]) -> dict:
    from ptsskit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    # the corpus path depends on the checkout's location; the golden file must not
    texts = {k: v.getvalue().replace(str(CORPUS), "corpus") for k, v in (("stdout", out), ("stderr", err))}
    return {"code": code, **texts}


def test_every_corpus_spec_is_covered():
    specs = sorted(p.name for p in CORPUS.glob("*.ptss"))
    assert specs == sorted(SPEC_ROOTS)


@pytest.mark.parametrize("key", sorted(cases()))
def test_pts_output_matches_golden(key):
    golden = json.loads(GOLDEN.read_text())
    assert run(cases()[key]) == golden[key]


def test_every_export_loads_back():
    from ptsskit.engine import export_pts, load_pts

    exports = {key: case["stdout"] for key, case in json.loads(GOLDEN.read_text()).items() if case["code"] == 0}
    for key, out in sorted(exports.items()):
        assert export_pts(load_pts(out)) == out, key


if __name__ == "__main__":
    recorded = {key: run(argv) for key, argv in sorted(cases().items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
