"""`ptsskit check-format` output pinned byte for byte, text and `--json`:
every corpus spec, the patience-rule variants of `tests/test_format.py`, and
one mutant of a corpus spec for each condition.

Re-record (only when the output is meant to change) with

    PYTHONPATH=src python3 tests/test_golden_format.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden_format.json"

G_PAT = "rule g_pat: x2 --tau-> mu |- g(x1,x2) --tau-> ^g(delta(x1),mu)"

# name -> (corpus spec, line replaced, its replacement)
VARIANTS = {
    "patience_renamed": ("cx23.ptss", G_PAT, "rule g_pat: zz --tau-> nu |- g(w1,zz) --tau-> ^g(delta(w1),nu)"),
    "patience_wrong_shape": ("cx23.ptss", G_PAT, "rule g_pat: x2 --tau-> mu |- g(x1,x2) --tau-> ^g(delta(x2),mu)"),
    # a wild argument with a patience rule tested by a tau premise
    "mutant_2a": (
        "cx23.ptss",
        "rule g_b: x2 --b-> mu |- g(x1,x2) --b-> ^0",
        "rule g_b: x2 --tau-> mu |- g(x1,x2) --b-> ^0",
    ),
    # g.2 loses its patience rule but is still tested
    "mutant_2b": ("final_pb.ptss", "rule g_pat2: y --tau-> mu |- g(x,y) --tau-> ^g(delta(x),mu)", ""),
    # a wild source variable copied under another operator: the nesting graph
    # makes that operator's argument wild too, so the rule fails 2b, not 2c,
    # which holds by construction
    "mutant_2c": (
        "cx23.ptss",
        "rule g_b: x2 --b-> mu |- g(x1,x2) --b-> ^0",
        "rule g_b: x2 --b-> mu |- g(x1,x2) --b-> delta(+(x1,f(x2)))",
    ),
    # the premise target occurs in its own premise source
    "mutant_2d": (
        "cx23.ptss",
        "rule f_a: x --a-> mu |- f(x) --a-> ^g(delta(x),mu)",
        "rule f_a: a.mu --a-> mu |- f(x) --a-> ^g(delta(x),mu)",
    ),
    # a repeated conclusion-source variable
    "mutant_shape": (
        "cx23.ptss",
        "rule g_b: x2 --b-> mu |- g(x1,x2) --b-> ^0",
        "rule g_b: x2 --b-> mu |- g(x2,x2) --b-> ^0",
    ),
}


def specs() -> dict[str, str]:
    """Case name -> spec text."""
    out = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.ptss"))}
    for name, (base, old, new) in VARIANTS.items():
        text = out[base]
        assert old in text, (name, old)
        out[name] = text.replace(old, new)
    return out


def run(path: Path) -> dict:
    from ptsskit.cli import main

    outcome = {}
    for key, flags in (("text", []), ("json", ["--json"])):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check-format", str(path), *flags])
        outcome[key] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return outcome


def run_all(folder: Path) -> dict:
    recorded = {}
    for name, text in specs().items():
        path = folder / (name if name.endswith(".ptss") else f"{name}.ptss")
        path.write_text(text)
        recorded[name] = run(path)
    return recorded


@pytest.mark.parametrize("name", sorted(specs()))
def test_check_format_output_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    path = tmp_path / (name if name.endswith(".ptss") else f"{name}.ptss")
    path.write_text(specs()[name])
    assert run(path) == golden[name]


def test_every_corpus_spec_and_variant_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(specs())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        recorded = run_all(Path(folder))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
