"""Partition refinement against the pair-deleting fixpoint it replaced
(`tests/reference_refine.py`): the same relation of every kind on fixed-seed
random and stuttered PTSs and on the corpus, each result a fixpoint of the
kind's per-pair check, no lifting on the way to a YES, and no max-flow on
any decision path."""

import random
import re
import sys
from fractions import Fraction

import pytest

import ptsskit.bisim as bisim
from ptsskit import lp
from ptsskit.cli import EXIT_OK, main
from ptsskit.engine import DomainBound, load_pts, reachable_pts
from ptsskit.errors import PtssError
from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import render_term
from tests import reference_refine
from tests.conftest import CORPUS
from tests.reference_partitions import bisimulation_pairs

KINDS = ("branching", "pbranching", "rooted")


# -- the random families of perfbench/workloads.py ------------------------------

def random_pts(rng, k, den=4):
    """1-2 transitions per state, labels tau/a/b, 1-2-point targets in
    multiples of 1/den (quarters, as in the benchmark, by default)."""
    trans = []
    for i in range(k):
        for _ in range(rng.randint(1, 2)):
            label = rng.choice(("tau", "a", "b"))
            if k < 2 or rng.random() < 0.5:
                target = {rng.randrange(k): Fraction(1)}
            else:
                u, v = rng.sample(range(k), 2)
                w = Fraction(rng.randint(1, den - 1), den)
                target = {u: w, v: 1 - w}
            trans.append((i, label, target))
    return trans


def _dist(prefix, target):
    return "{ " + ", ".join(f"{prefix}{u}: {w}" for u, w in target.items()) + " }"


def plain_pts(k, trans):
    lines = [f"state r{i}" for i in range(k)]
    lines += [f"trans r{i} --{label}-> {_dist('r', target)}" for i, label, target in trans]
    return load_pts("\n".join(lines) + "\n")


def stuttered_pts(k, trans):
    return load_pts(stuttered_text(k, trans))


def stuttered_text(k, trans):
    """R, a copy of R in which each state first takes one inert tau-step, and
    a planted unrelated pair."""
    lines = [f"state {x}{i}" for i in range(k) for x in "rcm"] + ["state p", "state q"]
    for i, label, target in trans:
        lines.append(f"trans r{i} --{label}-> {_dist('r', target)}")
        lines.append(f"trans m{i} --{label}-> {_dist('c', target)}")
    lines += [f"trans c{i} --tau-> {{ m{i}: 1 }}" for i in range(k)]
    lines += ["trans p --a-> { r0: 1 }", "trans q --b-> { r0: 1 }"]
    return "\n".join(lines) + "\n"


# -- the corpus ---------------------------------------------------------------------

def _spec_terms(text):
    """The terms a spec file's `# roots:` and `# expect bisim|probe` rows
    name, with each probe context applied to its pair."""
    terms = []
    for line in text.splitlines():
        words = line.rsplit(":", 1)[0].split() if line.startswith("# expect ") else line.split()
        if line.startswith("# roots:"):
            terms += words[2:]
        elif words[:3] == ["#", "expect", "bisim"]:
            terms += words[4:]
        elif words[:3] == ["#", "expect", "probe"]:
            context, s, t = words[4:]
            terms += [s, t, context.replace("_", s), context.replace("_", t)]
    return terms


def corpus_systems():
    systems = [(path.name, load_pts(path.read_text())) for path in sorted(CORPUS.glob("*.pts"))]
    for path in sorted(CORPUS.glob("*.ptss")):
        text = path.read_text()
        spec = parse_spec(text)
        roots = tuple(parse_term(term, spec.signature) for term in _spec_terms(text))
        if not roots:
            continue
        try:
            systems.append((path.name, reachable_pts(spec, DomainBound(roots, max_depth=10))))
        except PtssError:  # incomplete_f.ptss has no PTS
            pass
    return systems


# -- the cross-check ------------------------------------------------------------------

def _fast(kind, pts):
    if kind == "pbranching":
        return bisim.prob_branching_bisim(pts)
    bb = bisim.branching_bisim(pts)
    if kind == "branching":
        return bb
    rooted = {(s, t) for s in bb.states for t in bb.states if bisim.rooted_branching_bisim(pts, s, t, bb)}
    return reference_refine.PairRelation(bb.states, rooted)


def _slow(kind, pts):
    if kind == "pbranching":
        return reference_refine.prob_branching_bisim(pts)
    return (reference_refine.branching_bisim if kind == "branching" else reference_refine.rooted_bisim)(pts)


def _agree(kind, pts):
    fast = _fast(kind, pts)
    assert reference_refine.pairs(fast) == _slow(kind, pts).pairs
    if kind != "rooted":
        # an equivalence, and one more sweep of the per-pair check deletes nothing
        assert reference_refine.is_equivalence(fast)
        ix = bisim._index(pts)
        check = (bisim._branching_check if kind == "branching" else bisim._pbranching_check)(pts, fast._block)
        assert all(check(ix.num[s], ix.num[t]) is None for s, t in reference_refine.pairs(fast))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_random_systems_agree_with_the_pair_fixpoint(kind, seed):
    for k in range(1, 17):
        _agree(kind, plain_pts(k, random_pts(random.Random(f"refine:{seed}:{k}"), k)))


@pytest.mark.parametrize("kind", KINDS)
def test_stuttered_systems_agree_with_the_pair_fixpoint(kind):
    for seed in range(4):
        for k in range(1, 5 if kind == "pbranching" else 9):
            _agree(kind, stuttered_pts(k, random_pts(random.Random(f"stutter:{seed}:{k}"), k)))


@pytest.mark.parametrize("kind", KINDS)
def test_benchmark_scale_stuttered_systems_agree_with_the_pair_fixpoint(kind):
    # the bisim benchmark's `br` systems, |R| = 12 and 38 states, drawn as
    # perfbench/workloads.py draws them; the pair fixpoint solves about 2,800
    # LPs for pbranching on one, so that kind checks one system
    for i in (1,) if kind == "pbranching" else range(2):
        pts = stuttered_pts(12, random_pts(random.Random(f"bisim/br/{i}"), 12))
        assert len(pts.states) == 38
        _agree(kind, pts)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("den", [3, 6])
def test_thirds_and_sixths_agree_with_the_pair_fixpoint(kind, den):
    # sixths mix the denominators 6, 3 and 2 within one system
    for seed in range(3):
        for k in range(1, 17):
            _agree(kind, plain_pts(k, random_pts(random.Random(f"refine:{seed}:{k}"), k, den)))
    for seed in range(4):
        for k in range(1, 5 if kind == "pbranching" else 9):
            _agree(kind, stuttered_pts(k, random_pts(random.Random(f"stutter:{seed}:{k}"), k, den)))


# s and t are related only as sums: u, v and w form one class, on which s
# puts 1/6 + 1/3 and t puts 1/2
SUMS_ACROSS_DENOMINATORS = """\
state s
state t
state u
state v
state w
state x
trans s --a-> { u: 1/6, v: 1/3, x: 1/2 }
trans t --a-> { w: 1/2, x: 1/2 }
trans u --b-> { x: 1 }
trans v --b-> { x: 1 }
trans w --b-> { x: 1 }
"""


@pytest.mark.parametrize("kind", KINDS)
def test_block_masses_agree_as_sums_across_denominators(kind):
    pts = load_pts(SUMS_ACROSS_DENOMINATORS)
    _agree(kind, pts)
    decision = bisim.decide(kind, pts)
    s, t = pts.states[:2]
    assert decision.related(s, t)
    if kind != "rooted":
        assert [[render_term(u) for u in c] for c in decision.classes()] == [["s", "t"], ["u", "v", "w"], ["x"]]


def _is_prime(n):
    """Miller-Rabin with the first 13 primes as bases, exact below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(r - 1)):
            return False
    return True


def test_twenty_digit_prime_denominators_agree_with_the_pair_fixpoint():
    # 12 states: r6..r11 copy the steps of r0..r5 onto the copies, and every
    # split target of either half has its own 20-digit prime denominator, so
    # the common denominator of the integer weights has hundreds of digits
    primes = iter(n for n in range(10**19 + 1, 10**20, 2) if _is_prime(n))
    rng = random.Random("primes:14")  # 5 of its 8 steps split
    lines = [f"state r{i}" for i in range(12)]
    for i, label, target in random_pts(rng, 6):
        for shift in (0, 6):
            if len(target) == 2:
                p = next(primes)
                w = Fraction(rng.randrange(1, p), p)
                target = dict(zip(target, (w, 1 - w)))
            lines.append(f"trans r{i + shift} --{label}-> {_dist('r', {u + shift: w for u, w in target.items()})}")
    pts = load_pts("\n".join(lines) + "\n")
    denominators = [p.denominator for tr in pts.transitions for _, p in tr.target.items() if p != 1]
    assert len(denominators) == 20 and len(set(denominators)) == 10
    assert all(len(str(d)) == 20 for d in denominators)
    for kind in KINDS:
        _agree(kind, pts)
    assert len(bisim.branching_bisim(pts).classes()) < 12


# Three systems of the random family on which the pbranching partition needs
# more than signatures in which a unit cannot stay put.  In the first, r5
# -tau-> r3 is inert and r5 can mix it into a tau-combination that r3 cannot
# make, yet r3 ~ r5.  In the second and third, the stay-free per-pair check
# related fewer pairs (coarse-signatures: none; not-transitive: r0 ~ r3 and
# r3 ~ r2 but not r0 ~ r2, so no equivalence); letting each stopped unit of a
# tau-challenge stay put relates r0 ~ r4, and r0, r2 and r3, as the definition
# (`tests/reference_pbranching.py`) does.
MIXES_AN_INERT_STEP = """\
trans r0 --tau-> { r1: 1/2, r2: 1/2 }
trans r0 --tau-> { r3: 1 }
trans r1 --a-> { r2: 3/4, r5: 1/4 }
trans r1 --b-> { r0: 1 }
trans r2 --a-> { r1: 3/4, r3: 1/4 }
trans r3 --a-> { r3: 1/2, r5: 1/2 }
trans r3 --tau-> { r1: 3/4, r2: 1/4 }
trans r4 --a-> { r0: 1 }
trans r4 --tau-> { r0: 1 }
trans r5 --tau-> { r3: 1 }
"""
COARSE_SIGNATURES = """\
trans r0 --b-> { r3: 3/4, r0: 1/4 }
trans r0 --tau-> { r1: 1 }
trans r1 --a-> { r0: 1 }
trans r2 --b-> { r2: 1/4, r4: 3/4 }
trans r2 --a-> { r4: 1 }
trans r3 --tau-> { r1: 1/2, r4: 1/2 }
trans r3 --tau-> { r2: 1 }
trans r4 --tau-> { r0: 1/2, r4: 1/2 }
trans r4 --tau-> { r4: 1/4, r1: 3/4 }
"""
NOT_TRANSITIVE = """\
trans r0 --tau-> { r0: 1/2, r3: 1/2 }
trans r0 --tau-> { r3: 1/4, r1: 3/4 }
trans r1 --b-> { r2: 3/4, r1: 1/4 }
trans r2 --tau-> { r1: 1 }
trans r2 --a-> { r0: 1 }
trans r3 --tau-> { r3: 1/2, r2: 1/2 }
"""


@pytest.mark.parametrize("text, classes", [
    pytest.param(MIXES_AN_INERT_STEP, [["r0"], ["r1"], ["r2"], ["r3", "r5"], ["r4"]], id="mixes-an-inert-step"),
    pytest.param(COARSE_SIGNATURES, [["r0", "r4"], ["r1"], ["r2"], ["r3"]], id="coarse-signatures"),
    pytest.param(NOT_TRANSITIVE, [["r0", "r2", "r3"], ["r1"]], id="not-transitive"),
])
def test_pbranching_beyond_plain_signatures(text, classes):
    states = sorted(set(re.findall(r"r\d+", text)))
    pts = load_pts("".join(f"state {s}\n" for s in states) + text)
    _agree("pbranching", pts)
    assert reference_refine.pairs(bisim.prob_branching_bisim(pts)) == bisimulation_pairs(pts)
    assert [[render_term(u) for u in c] for c in bisim.prob_branching_bisim(pts).classes()] == classes


@pytest.mark.parametrize("kind", KINDS)
def test_corpus_systems_agree_with_the_pair_fixpoint(kind):
    systems = corpus_systems()
    assert len(systems) >= 10
    for name, pts in systems:
        _agree(kind, pts)


def _counted(monkeypatch, *functions):
    """Each library function's call count, counted at every `ptsskit` module that holds it."""
    calls = {f.__name__: 0 for f in functions}
    for f in functions:
        def counting(*args, f=f):
            calls[f.__name__] += 1
            return f(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ptsskit" and getattr(module, f.__name__, None) is f:
                monkeypatch.setattr(module, f.__name__, counting)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_a_yes_query_runs_no_max_flow(monkeypatch, capsys, kind):
    # a YES answer runs no witness, so it lifts nothing
    calls = _counted(monkeypatch, bisim.lift_check, lp.max_flow)
    for path in sorted(CORPUS.glob("*.pts")):
        for state in load_pts(path.read_text()).states:
            name = render_term(state)
            assert main(["bisim", str(path), "--kind", kind, name, name]) == EXIT_OK
            assert capsys.readouterr().out.endswith(": YES\n")
    assert calls == {"lift_check": 0, "max_flow": 0}


def test_no_decision_path_runs_max_flow(monkeypatch):
    # every verdict and witness on the corpus systems lifts against a partition
    # by block masses: `lift_check` and max-flow are left to the oracles, and
    # branching and rooted build no LP at all
    calls = _counted(monkeypatch, bisim.lift_check, lp.max_flow, lp.feasible)
    for path in sorted(CORPUS.glob("*.pts")):
        pts = load_pts(path.read_text())
        for kind in KINDS:
            decision = bisim.decide(kind, pts)
            for s in pts.states:
                for t in pts.states:
                    decision.related(s, t)
                    decision.witness(s, t)
            if kind != "pbranching":
                assert calls["feasible"] == 0, (path.name, kind)
            calls["feasible"] = 0
    assert calls == {"lift_check": 0, "max_flow": 0, "feasible": 0}
