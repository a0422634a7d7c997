"""`decide`, the single query entry point of `ptsskit.bisim`: one relation
computation per query, witnesses pinned byte for byte, and agreement with the
per-kind deciders on random systems."""

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import ptsskit.bisim as bisim
from ptsskit.bisim import (
    KINDS,
    branching_bisim,
    decide,
    prob_branching_bisim,
    rooted_branching_bisim,
)
from ptsskit.cli import EXIT_NEGATIVE, EXIT_USAGE, main
from ptsskit.engine import load_pts
from ptsskit.terms import render_term
from tests.conftest import CORPUS
from tests.reference_refine import outgoing
from tests.test_almost_sure import PLANTED, tau_chain

GOLDEN = Path(__file__).resolve().parent / "golden_bisim.json"


def _counting(monkeypatch, name, memo=None):
    """Replace `ptsskit.bisim.<name>`, wherever a ptsskit module holds it, by
    a wrapper that counts its calls and, given a memo, reuses the relation
    already computed for an equal PTS."""
    original = getattr(bisim, name)
    calls = []

    def wrapper(pts):
        calls.append(pts)
        if memo is None:
            return original(pts)
        key = (name, pts)
        if key not in memo:
            memo[key] = original(pts)
        return memo[key]

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("ptsskit") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_no_query_computes_the_relation_once(monkeypatch, capsys, kind):
    counts = {name: _counting(monkeypatch, name) for name in ("branching_bisim", "prob_branching_bisim")}
    path = str(CORPUS / "mixed_choice.pts")
    code = main(["bisim", path, "--kind", kind, "stop", "t0"])
    out = capsys.readouterr().out
    assert code == EXIT_NEGATIVE and "witness:" in out
    calls = {name: len(c) for name, c in counts.items()}
    if kind == "pbranching":
        assert calls == {"branching_bisim": 0, "prob_branching_bisim": 1}
    else:
        assert calls == {"branching_bisim": 1, "prob_branching_bisim": 0}


def test_bisim_output_matches_golden_witnesses(monkeypatch, capsys):
    # text output and a digest of the --json output of every NO pair, every
    # kind, on three corpus automata; the relation of each automaton is
    # computed once and shared, which changes no output
    memo = {}
    for name in ("branching_bisim", "prob_branching_bisim"):
        _counting(monkeypatch, name, memo)
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 187
    for key, want in sorted(golden.items()):
        fname, kind, s, t = key.split()
        argv = ["bisim", str(CORPUS / fname), "--kind", kind, s, t]
        assert main(argv) == EXIT_NEGATIVE, key
        assert capsys.readouterr().out == want["text"], key
        assert main(argv + ["--json"]) == EXIT_NEGATIVE, key
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == want["json_sha256"], key


def _random_pts(rng, n):
    names = [f"s{i}" for i in range(n)]
    lines = [f"state {name}" for name in names]
    for name in names:
        for _ in range(rng.randint(0, 2)):
            label = rng.choice(("tau", "a", "b"))
            support = rng.sample(names, rng.randint(1, min(2, n)))
            if len(support) == 1:
                entries = f"{support[0]}: 1"
            else:
                k = rng.choice((2, 3, 4))
                j = rng.randint(1, k - 1)
                entries = f"{support[0]}: {j}/{k}, {support[1]}: {k - j}/{k}"
            lines.append(f"trans {name} --{label}-> {{ {entries} }}")
    return load_pts("\n".join(lines) + "\n")


def test_decide_agrees_with_the_deciders_on_random_systems():
    rng = random.Random(20151)
    for trial in range(12):
        pts = _random_pts(rng, 2 + trial % 4)
        bb = branching_bisim(pts)
        pb = prob_branching_bisim(pts)
        for kind in KINDS:
            decision = decide(kind, pts)
            for s, t in product(pts.states, repeat=2):
                if kind == "rooted":
                    direct = rooted_branching_bisim(pts, s, t, bb)
                else:
                    direct = (bb if kind == "branching" else pb).related(s, t)
                assert decision.related(s, t) == direct, (trial, kind, s, t)
                if direct:
                    continue
                state, tr = decision.witness(s, t)
                assert state in (s, t) and tr in outgoing(pts, state), (trial, kind, s, t)
        assert decide("rooted", pts).classes() is None
        assert decide("branching", pts).classes() == bb.classes()


@pytest.mark.parametrize("kind", ["branching", "pbranching"])
def test_a_witness_widens_only_the_queried_pairs_partner_sets(monkeypatch, kind):
    # the per-pair check only reads its relation, so every other state keeps
    # the decided relation's own set: no copy of the n^2 pairs of a large class
    pts = tau_chain(60, PLANTED)
    decision = decide(kind, pts)
    s, t = (u for u in pts.states if render_term(u) in ("p", "q"))
    name = "_branching_check" if kind == "branching" else "_pbranching_check"
    check, tables = getattr(bisim, name), []
    monkeypatch.setattr(bisim, name, lambda pts, table: tables.append(table) or check(pts, table))
    assert decision.witness(s, t) == (s, outgoing(pts, s)[0])
    (table,), relation = tables, decision.relation
    assert table[s] == relation.partners(s) | {t} and table[t] == relation.partners(t) | {s}
    assert all(table[u] is relation.partners(u) for u in pts.states if u not in (s, t))


def test_decide_rejects_an_unknown_kind():
    with pytest.raises(ValueError):
        decide("strong", load_pts("state s\n"))


def test_corpus_unknown_bisim_kind_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "a.pts").write_text("# expect bisim strong s s: yes\nstate s\n")
    code = main(["corpus-run", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_USAGE
    assert "unknown bisim kind 'strong'" in out


def test_corpus_run_decides_each_kind_once_per_pts_file(monkeypatch, tmp_path, capsys):
    # mixed_choice.pts: 2 branching and 3 pbranching rows; tau_tree.pts: 8 branching rows
    for name in ("mixed_choice.pts", "tau_tree.pts"):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    counts = {name: _counting(monkeypatch, name) for name in ("branching_bisim", "prob_branching_bisim")}
    assert main(["corpus-run", str(tmp_path)]) == 0
    assert "summary: 13 expectations, 0 failed" in capsys.readouterr().out
    assert {name: len(c) for name, c in counts.items()} == {"branching_bisim": 2, "prob_branching_bisim": 1}


# a process that logs every LP `decide("pbranching")` asks, its rows (each by
# column) paired with their right-hand sides, on not-transitive, tau-heavy draws
# 30, 42, 48 and 2611 and corpus/mixed_choice.pts; with a block's moves read
# off a set, the LPs of draws 30, 42 and 48 came in another order under hash
# seeds 1 and 2
_LP_ORDER = """
from ptsskit import lp
from ptsskit.bisim import decide
from ptsskit.engine import load_pts
from tests.conftest import CORPUS
from tests.test_partition_oracle import _not_transitive, _tau_heavy

feasible = lp.feasible


def logged(rows, rhs):
    print(sorted(zip([sorted(row.items()) for row in rows], rhs)))
    return feasible(rows, rhs)


lp.feasible = logged
for pts in (_not_transitive(), *map(_tau_heavy, (30, 42, 48, 2611)), load_pts((CORPUS / "mixed_choice.pts").read_text())):
    decide("pbranching", pts)
    print("system")
"""


def test_pbranching_asks_its_lps_in_one_order_whatever_the_hash_seed():
    # string hashes change with the hash seed and term hashes with memory layout,
    # so an LP order read off a set would change between the two processes
    root = Path(__file__).resolve().parent.parent
    logs = [subprocess.run([sys.executable, "-c", _LP_ORDER], cwd=root, capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}", "PYTHONHASHSEED": seed},
                           ).stdout for seed in ("1", "2")]
    assert logs[0] == logs[1]
    assert "system\nsystem" not in logs[0] and not logs[0].startswith("system"), logs[0]  # each system asks LPs
