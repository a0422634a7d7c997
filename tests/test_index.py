"""The integer index the bisimulation deciders refine over (`bisim._Index`):
built only by commands that decide a bisimulation, at most once per PTS, and
on the product family of ROADMAP "Product state spaces" the same pbranching
classes as before it with a fraction of the LPs, and the same branching
classes as before the one-block move keys.  A match that a member with no
inert step could make only by its own single step builds no LP."""

import hashlib
import io
import json
import shutil
from contextlib import redirect_stdout

import pytest

import ptsskit.bisim as bisim
from ptsskit import lp
from ptsskit.cli import EXIT_NEGATIVE, EXIT_OK, main
from ptsskit.engine import DomainBound, export_pts, load_pts, reachable_pts
from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import render_term
from tests.conftest import CORPUS

# running.ptss with a parallel composition; par_l@tau and par_r@tau are patience rules
PRODUCT_SPEC = (CORPUS / "running.ptss").read_text().replace("rule prefix", "op par : s s -> s\nrule prefix") + (
    "rule par_l: x --<A>-> mu |- par(x,y) --<A>-> ^par(mu,delta(y))\n"
    "rule par_r: y --<A>-> mu |- par(x,y) --<A>-> ^par(delta(x),mu)\n"
)
COMPONENT = "a.oplus{1/2:delta(tau.delta(0)),1/2:delta(b.delta(0))}"

# the pbranching classes of the 4-fold product before the index: 15 classes
# of 768 states, as the sha256 of their rendered states in JSON
PRODUCT_CLASSES_SHA256 = "8dad899302b9b5215139542cd91e8ef42735e39cd805dbf96f07db3c80c43240"
PRODUCT_CLASS_SIZES = [3, 3, 12, 12, 18, 24, 24, 48, 72, 72, 72, 72, 96, 96, 144]
PARENT_FEASIBLE_CALLS = 1994  # lp.feasible calls of that decision before the index

# the branching classes of the 5-fold product before moves were keyed as
# (label, block): 21 classes of 3,072 states, hashed as above
PRODUCT5_BRANCHING_CLASSES_SHA256 = "fe88cdc52a1259841f30cda16a4fd982106592cadbbcd44e9fb591dbdbca846c"


# the sha256 of `export_pts` of the k-fold product alone, and its states,
# recorded before the engine compiled its rules
PRODUCT_EXPORT = {
    3: (64, "257d9d4576205066a01d5a4c1609c37fd990d710db74301e11394353a82b8f98"),
    4: (256, "10aa9083b80b5da1cbdeb4ea3fac5f710240d33a5cbbeffce40a0d0bd2f88a53"),
}


def product_pts(k):
    """The PTS reachable from the k-fold `par` of COMPONENT and from that
    product beside an inert tau-step."""
    spec = parse_spec(PRODUCT_SPEC)
    root = COMPONENT
    for _ in range(k - 1):
        root = f"par({COMPONENT},{root})"
    roots = tuple(parse_term(text, spec.signature) for text in (root, f"par(tau.delta(0),{root})"))
    return reachable_pts(spec, DomainBound(roots, max_depth=64, max_states=4096)), roots


def test_product_pbranching_keeps_its_classes_with_a_fifth_of_the_lps(monkeypatch):
    pts, (root, stuttered) = product_pts(4)
    assert len(pts.states) == 768
    calls = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda rows, rhs: calls.append(len(rows)) or feasible(rows, rhs))
    decision = bisim.decide("pbranching", pts)
    classes = [[render_term(u) for u in c] for c in decision.classes()]
    assert sorted(map(len, classes)) == PRODUCT_CLASS_SIZES
    assert hashlib.sha256(json.dumps(classes).encode()).hexdigest() == PRODUCT_CLASSES_SHA256
    assert decision.related(root, stuttered)
    assert len(calls) <= PARENT_FEASIBLE_CALLS // 5


def test_product_branching_keeps_its_classes():
    pts, (root, stuttered) = product_pts(5)
    assert len(pts.states) == 3072
    decision = bisim.decide("branching", pts)
    classes = [[render_term(u) for u in c] for c in decision.classes()]
    assert len(classes) == 21
    assert hashlib.sha256(json.dumps(classes).encode()).hexdigest() == PRODUCT5_BRANCHING_CLASSES_SHA256
    assert decision.related(root, stuttered)


@pytest.mark.parametrize("k", sorted(PRODUCT_EXPORT))
def test_product_export_is_pinned(k):
    # the lifted targets ^par(mu,delta(y)) and ^par(delta(x),mu), built and evaluated
    states, digest = PRODUCT_EXPORT[k]
    spec = parse_spec(PRODUCT_SPEC)
    root = COMPONENT
    for _ in range(k - 1):
        root = f"par({COMPONENT},{root})"
    pts = reachable_pts(spec, DomainBound((parse_term(root, spec.signature),), max_depth=64, max_states=4096))
    assert len(pts.states) == states
    assert hashlib.sha256(export_pts(pts).encode()).hexdigest() == digest


@pytest.fixture
def index_builds(monkeypatch):
    """Count the indexes built, wherever a decider builds one."""
    built = []

    class Counting(bisim._Index):
        def __init__(self, pts):
            built.append(pts)
            super().__init__(pts)

    monkeypatch.setattr(bisim, "_Index", Counting)
    return built


def test_pts_and_a_corpus_run_without_bisim_rows_build_no_index(index_builds, tmp_path):
    # the files derive and check PTSs, and decide no bisimulation
    with redirect_stdout(io.StringIO()):
        assert main(["pts", str(CORPUS / "running.ptss"), "--root", "+(a.delta(b.delta(0)),tau.delta(0))"]) == EXIT_OK
        for name in ("delayed_g.ptss", "incomplete_f.ptss"):
            text = (CORPUS / name).read_text()
            assert "# expect complete" in text and "expect bisim" not in text and "expect probe" not in text
            shutil.copy(CORPUS / name, tmp_path / name)
        assert main(["corpus-run", str(tmp_path)]) == EXIT_OK
    assert index_builds == []


@pytest.mark.parametrize("kind", bisim.KINDS)
def test_a_yes_query_builds_one_index(index_builds, capsys, kind):
    assert main(["bisim", str(CORPUS / "mixed_choice.pts"), "--kind", kind, "t0", "t0"]) == EXIT_OK
    assert capsys.readouterr().out.endswith(": YES\n")
    assert len(index_builds) == 1


@pytest.mark.parametrize("kind", bisim.KINDS)
def test_a_no_query_builds_one_index(index_builds, capsys, kind):
    # the witness's per-pair check reads the index the decision built
    assert main(["bisim", str(CORPUS / "mixed_choice.pts"), "--kind", kind, "t2", "t3"]) == EXIT_NEGATIVE
    assert capsys.readouterr().out.endswith(": NO\nwitness: unmatched challenge t2 --b-> {stop: 1}\n")
    assert len(index_builds) == 1


def test_a_corpus_run_builds_one_index_per_pts(index_builds, capsys, tmp_path):
    # mixed_choice.pts asks about branching and pbranching pairs of one PTS
    shutil.copy(CORPUS / "mixed_choice.pts", tmp_path)
    assert main(["corpus-run", str(tmp_path)]) == EXIT_OK
    assert "mixed_choice.pts" in capsys.readouterr().out
    assert len(index_builds) == 1


# after the first split, t and x form a block whose members have no inert step
# and one tau step each, its own move into the blocks of g and h
SPREAD_TAUS = """state t
state x
state g
state h
trans t --tau-> { g: 1/2, h: 1/2 }
trans x --tau-> { g: 1/4, h: 3/4 }
trans g --a-> { g: 1 }
trans h --b-> { h: 1 }
"""


def test_a_member_alone_with_its_own_move_asks_no_lp(monkeypatch):
    # staying put leaves t in its own block, outside x's move, so the one step
    # left is t's own, whose masses are not x's: answered without an LP
    calls, asked = [], []
    feasible, block_match = lp.feasible, bisim._block_match
    monkeypatch.setattr(lp, "feasible", lambda rows, rhs: calls.append(len(rows)) or feasible(rows, rhs))
    monkeypatch.setattr(bisim, "_block_match", lambda *args: asked.append(block_match(*args)) or asked[-1])
    decision = bisim.decide("pbranching", load_pts(SPREAD_TAUS))
    assert [[render_term(u) for u in c] for c in decision.classes()] == [["g"], ["h"], ["t"], ["x"]]
    assert asked == [False, False]
    assert calls == []
