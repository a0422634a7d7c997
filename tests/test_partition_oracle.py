"""`prob_branching_bisim` against the definition (`tests/reference_pbranching.py`,
brute force over every partition by `tests/reference_partitions.py`) on
fixed-seed small systems: the bisimulation partitions are closed under join,
and their join, the greatest bisimulation equivalence, is the library's
partition.  Tau-heavy draws 2611, 4194 and 4367 and not-transitive, on which
an earlier reading (a unit of a tau-challenge could not stay put) related
other pairs, are pinned.  The library's relation is an equivalence and a
fixpoint of its own per-pair check on those families, as `_agree` of
`tests/test_refine_oracle.py` checks on its systems.

Two families: tau-heavy 4-state systems (labels from tau, tau, a, b; 70%
two-point targets in quarters) and the plain 5-state systems of
`tests/test_refine_oracle.py`.  Every unrelated pair has a witness, on those
families, on plain 6-state systems and on the corpus `.pts` files."""

import random
import re
from fractions import Fraction

import pytest

import ptsskit.bisim as bisim
from ptsskit.bisim import prob_branching_bisim
from ptsskit.engine import export_pts, load_pts
from ptsskit.terms import opaque_state, render_term
from tests.conftest import CORPUS
from tests.reference_refine import is_equivalence, pairs
from tests.reference_partitions import bisimulation_pairs, bisimulation_partitions, join
from tests.test_refine_oracle import NOT_TRANSITIVE, plain_pts, random_pts

SYSTEMS = 200  # of each family


def tau_heavy_pts(rng, k=4):
    trans = []
    for i in range(k):
        for _ in range(rng.randint(1, 2)):
            label = rng.choice(("tau", "tau", "a", "b"))
            if rng.random() < 0.7:
                u, v = rng.sample(range(k), 2)
                w = Fraction(rng.randint(1, 3), 4)
                target = {u: w, v: 1 - w}
            else:
                target = {rng.randrange(k): Fraction(1)}
            trans.append((i, label, target))
    return trans


FAMILIES = {"tau_heavy": (4, tau_heavy_pts), "plain": (5, lambda rng: random_pts(rng, 5))}


def _names(partition):
    return [[render_term(s) for s in block] for block in partition]


def _assert_coarsest(pts):
    """The bisimulation partitions of `pts` are closed under join, and the
    library's classes are the join of them all."""
    kept = bisimulation_partitions(pts)
    assert all(join(pts, [p, q]) in kept for p in kept for q in kept)
    assert prob_branching_bisim(pts).classes() == join(pts, kept)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coarsest_bisimulation_partition(family):
    k, generate = FAMILIES[family]
    for seed in range(SYSTEMS):
        _assert_coarsest(plain_pts(k, generate(random.Random(f"partitions:{family}:{seed}"))))


def _not_transitive():
    states = sorted(set(re.findall(r"r\d+", NOT_TRANSITIVE)))
    return load_pts("".join(f"state {s}\n" for s in states) + NOT_TRANSITIVE)


def _tau_heavy(seed):
    return plain_pts(4, tau_heavy_pts(random.Random(f"components:tau_heavy:{seed}")))


def test_the_pinned_draws_have_a_coarsest_bisimulation_partition():
    for pts in (_tau_heavy(2611), _tau_heavy(4194), _tau_heavy(4367), _not_transitive()):
        _assert_coarsest(pts)


def test_not_transitive_oracle():
    pts = _not_transitive()
    assert _names(join(pts, bisimulation_partitions(pts))) == [["r0", "r2", "r3"], ["r1"]]


def test_not_transitive_is_the_coarsest_partition():
    pts = _not_transitive()
    assert _names(prob_branching_bisim(pts).classes()) == [["r0", "r2", "r3"], ["r1"]]


def test_pbranching_relates_the_pairs_of_the_bisimulation_partitions():
    # 2611, 4194 and 4367 are the draws of the first 5,000 on which the pairs
    # of the stay-free reading's relation and of the coarsest partition differed
    draws = [_tau_heavy(seed) for seed in [*range(150), 2611, 4194, 4367]]
    draws += [plain_pts(5, random_pts(random.Random(f"components:plain:{seed}"), 5)) for seed in range(50)]
    for pts in draws:
        assert pairs(prob_branching_bisim(pts)) == bisimulation_pairs(pts)
    assert _names(prob_branching_bisim(_tau_heavy(4194)).classes()) == [["r0", "r2", "r3"], ["r1"]]
    assert _names(prob_branching_bisim(_tau_heavy(4367)).classes()) == [["r0"], ["r1", "r2", "r3"]]


def test_draw_2611_has_a_greatest_bisimulation_equivalence():
    # under the stay-free reading its bisimulation partitions were the
    # identity, {r0 r1} and {r1 r2}, whose join was none; letting each stopped
    # unit of a tau-challenge stay put makes the join {r0 r1 r2} one
    pts = _tau_heavy(2611)
    assert [str(tr) for tr in pts.transitions] == [
        "r0 --a-> {r0: 1/2, r1: 1/2}", "r0 --tau-> {r3: 1}", "r1 --tau-> {r0: 1}", "r1 --tau-> {r3: 1}",
        "r2 --tau-> {r0: 3/4, r3: 1/4}", "r2 --tau-> {r1: 1/2, r2: 1/2}", "r3 --b-> {r0: 3/4, r2: 1/4}",
    ]
    kept = bisimulation_partitions(pts)
    assert [_names(part) for part in kept] == [
        [["r0"], ["r1"], ["r2"], ["r3"]], [["r0", "r1"], ["r2"], ["r3"]], [["r0"], ["r1", "r2"], ["r3"]],
        [["r0", "r1", "r2"], ["r3"]],
    ]
    assert _names(prob_branching_bisim(pts).classes()) == [["r0", "r1", "r2"], ["r3"]]


def test_the_relation_is_an_equivalence_and_a_fixpoint_of_its_check():
    draws = [plain_pts(k, generate(random.Random(f"partitions:{family}:{seed}")))
             for family, (k, generate) in sorted(FAMILIES.items()) for seed in range(SYSTEMS)]
    draws += [_tau_heavy(2611), _tau_heavy(4194), _tau_heavy(4367), _not_transitive()]
    for pts in draws:
        rel = prob_branching_bisim(pts)
        assert is_equivalence(rel), export_pts(pts)
        check = bisim._pbranching_check(pts, {u: rel.partners(u) for u in pts.states})
        assert all(check(s, t) is None for s, t in pairs(rel)), export_pts(pts)


def test_every_unrelated_pair_has_a_witness():
    # a challenge that fails even against the relation widened by the pair
    draws = [load_pts(path.read_text()) for path in sorted(CORPUS.glob("*.pts"))]
    draws += [_not_transitive(), _tau_heavy(2611)] + [_tau_heavy(seed) for seed in range(300)]
    draws += [plain_pts(6, random_pts(random.Random(f"witness:plain:{seed}"), 6)) for seed in range(150)]
    unrelated = 0
    for pts in draws:
        decision = bisim.decide("pbranching", pts)
        for s in pts.states:
            for t in pts.states:
                if not decision.related(s, t):
                    unrelated += 1
                    assert decision.witness(s, t) is not None, (export_pts(pts), s, t)
    assert unrelated > 3000
    r0, r1 = (opaque_state(name) for name in ("r0", "r1"))
    assert [str(tr) for _, tr in (bisim.decide("pbranching", _not_transitive()).witness(*pair)
                                  for pair in ((r0, r1), (r1, r0)))] == [
        "r0 --tau-> {r0: 1/2, r3: 1/2}", "r1 --b-> {r1: 1/4, r2: 3/4}"]
