"""`prob_branching_bisim` against brute force (`tests/reference_partitions.py`)
on fixed-seed small systems: the library relates exactly the pairs that some
bisimulation partition relates.  The partitions of these families that are
bisimulations are closed under join, and whenever the library's relation is
an equivalence it is that join, the coarsest bisimulation partition.  Seed
2611 of the tau-heavy family has no coarsest one.

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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coarsest_bisimulation_partition(family):
    k, generate = FAMILIES[family]
    equivalences = 0
    for seed in range(SYSTEMS):
        pts = plain_pts(k, generate(random.Random(f"partitions:{family}:{seed}")))
        kept = bisimulation_partitions(pts)
        coarsest = join(pts, kept)
        assert coarsest in kept, seed
        rel = prob_branching_bisim(pts)
        if is_equivalence(rel):
            equivalences += 1
            assert rel.classes() == coarsest, seed
    assert equivalences > SYSTEMS // 2


def _not_transitive():
    states = sorted(set(re.findall(r"r\d+", NOT_TRANSITIVE)))
    return load_pts("".join(f"state {s}\n" for s in states) + NOT_TRANSITIVE)


def test_not_transitive_oracle():
    pts = _not_transitive()
    assert _names(join(pts, bisimulation_partitions(pts))) == [["r0"], ["r1"], ["r2", "r3"]]


def test_not_transitive_is_the_coarsest_partition():
    pts = _not_transitive()
    assert _names(prob_branching_bisim(pts).classes()) == [["r0"], ["r1"], ["r2", "r3"]]


def _tau_heavy(seed):
    return plain_pts(4, tau_heavy_pts(random.Random(f"components:tau_heavy:{seed}")))


def test_pbranching_relates_the_pairs_of_the_bisimulation_partitions():
    # 2611, 4194 and 4367 are the draws of the first 5,000 on which the pairs
    # of the library's relation and of the coarsest partition differed
    draws = [_tau_heavy(seed) for seed in [*range(150), 2611, 4194, 4367]]
    draws += [plain_pts(5, random_pts(random.Random(f"components:plain:{seed}"), 5)) for seed in range(50)]
    for pts in draws:
        assert pairs(prob_branching_bisim(pts)) == bisimulation_pairs(pts)
    assert _names(prob_branching_bisim(_tau_heavy(4194)).classes()) == [["r0", "r2"], ["r1"], ["r3"]]
    assert _names(prob_branching_bisim(_tau_heavy(4367)).classes()) == [["r0"], ["r1"], ["r2", "r3"]]


def test_no_greatest_bisimulation_equivalence():
    # the bisimulation partitions of this draw are the identity, {r0 r1} and
    # {r1 r2}; their join {r0 r1 r2} is no bisimulation, so no greatest
    # bisimulation equivalence exists, and the library's classes overlap
    pts = _tau_heavy(2611)
    assert [str(tr) for tr in pts.transitions] == [
        "r0 --a-> {r0: 1/2, r1: 1/2}", "r0 --tau-> {r3: 1}", "r1 --tau-> {r0: 1}", "r1 --tau-> {r3: 1}",
        "r2 --tau-> {r0: 3/4, r3: 1/4}", "r2 --tau-> {r1: 1/2, r2: 1/2}", "r3 --b-> {r0: 3/4, r2: 1/4}",
    ]
    kept = bisimulation_partitions(pts)
    assert [_names(part) for part in kept] == [
        [["r0"], ["r1"], ["r2"], ["r3"]], [["r0", "r1"], ["r2"], ["r3"]], [["r0"], ["r1", "r2"], ["r3"]],
    ]
    assert join(pts, kept) not in kept
    assert _names(prob_branching_bisim(pts).classes()) == [["r0", "r1"], ["r1", "r2"], ["r3"]]


def test_only_blocks_with_a_multi_block_move_are_re_signed_without_staying_put():
    # `prob_branching_bisim` returns the partition when every block signs alike
    # without staying put, and re-signs only the blocks where some member has
    # a move into several blocks: on a block with one-block moves only, no LP
    # reads `stay`, so its members sign alike, as refinement left them.  Then
    # the skip and the full re-check return alike, and so give one relation.
    draws = [plain_pts(k, generate(random.Random(f"partitions:{family}:{seed}")))
             for family, (k, generate) in sorted(FAMILIES.items()) for seed in range(SYSTEMS)]
    draws += [_tau_heavy(2611), _not_transitive()]
    one_block_blocks = returned = 0
    for pts in draws:
        ix = bisim._index(pts)
        rel, (block, members, moves, *kept) = bisim._partition(ix, bisim._pbranching_signatures)
        alike = [len(set(bisim._pbranching_signatures(ix, block, ms, moves, *kept, False))) == 1 for ms in members]
        one_block = [all(type(key) is int for x in ms for _, key in moves[x]) for ms in members]
        assert all(a for a, o in zip(alike, one_block) if o)
        one_block_blocks += sum(one_block)
        if all(alike):
            returned += 1
            assert pairs(prob_branching_bisim(pts)) == pairs(rel)
    assert one_block_blocks > len(draws) and 0 < returned < len(draws)


def test_every_unrelated_pair_has_a_witness():
    # where the sweeps deleted a pair, its challenge may be matched against the
    # relation widened by the pair; the witness then checks again with the pair
    # keeping only its common partners, as the sweeps did (not-transitive:
    # r0 --tau-> {r1: 3/4, r3: 1/4} fails against r3 either way)
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
    r0, r3 = (opaque_state(name) for name in ("r0", "r3"))
    assert [str(tr) for _, tr in (bisim.decide("pbranching", _not_transitive()).witness(*pair)
                                  for pair in ((r0, r3), (r3, r0)))] == ["r0 --tau-> {r1: 3/4, r3: 1/4}"] * 2
