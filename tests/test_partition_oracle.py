"""`prob_branching_bisim` against brute force (`tests/reference_partitions.py`)
on fixed-seed small systems: the partitions that are bisimulations are closed
under join, and whenever the library's relation is an equivalence it is that
join, the coarsest bisimulation partition.

Two families: tau-heavy 4-state systems (labels from tau, tau, a, b; 70%
two-point targets in quarters) and the plain 5-state systems of
`tests/test_refine_oracle.py`."""

import random
import re
from fractions import Fraction

import pytest

from ptsskit.bisim import prob_branching_bisim
from ptsskit.engine import load_pts
from ptsskit.terms import render_term
from tests.reference_partitions import bisimulation_partitions, join
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
        if rel.is_equivalence():
            equivalences += 1
            assert rel.classes() == coarsest, seed
    assert equivalences > SYSTEMS // 2


def _not_transitive():
    states = sorted(set(re.findall(r"r\d+", NOT_TRANSITIVE)))
    return load_pts("".join(f"state {s}\n" for s in states) + NOT_TRANSITIVE)


def test_not_transitive_oracle():
    pts = _not_transitive()
    assert _names(join(pts, bisimulation_partitions(pts))) == [["r0"], ["r1"], ["r2", "r3"]]


@pytest.mark.xfail(strict=True, reason="pbranching keeps a pair fixpoint that is not transitive (CHANGES.md FOUND line 22)")
def test_not_transitive_is_the_coarsest_partition():
    pts = _not_transitive()
    assert _names(prob_branching_bisim(pts).classes()) == [["r0"], ["r1"], ["r2", "r3"]]
