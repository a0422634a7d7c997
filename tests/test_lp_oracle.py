"""Cross-check of the sparse fraction-free `lp.feasible` against the dense
`Fraction` tableau it replaced (`tests/reference_lp.py`).

Random systems come from a fixed-seed hypothesis run; they include zero rows,
duplicated and rank-deficient rows, negative right-hand sides, infeasible and
degenerate systems, and 30-digit numerators and denominators.  Every LP that
`corpus-run` makes on the corpus, and every LP of the pair-deleting
pbranching fixpoint (`tests/reference_refine.py`) on the corpus `.pts`
files, is replayed against the oracle as well.  `bisim.lift_check`, which
lifts by the simplex, is checked against the max-flow lifting the oracles
keep and against criterion 8b's enumeration of weight functions.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsskit import lp
from ptsskit.bisim import lift_check
from ptsskit.cli import main
from ptsskit.distributions import Distribution
from ptsskit.engine import load_pts
from ptsskit.terms import opaque_state
from tests import reference_lp, reference_refine
from tests.conftest import CORPUS
from tests.test_acceptance import _lift_bruteforce, _random_dist

F = Fraction
BIG = 10**30

SMALL = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
HUGE = st.builds(F, st.integers(-BIG * 9, BIG * 9), st.integers(BIG, BIG * 9))
COEFF = st.one_of(st.just(F(0)), st.just(F(0)), SMALL, HUGE)  # half zeros: sparse rows


def sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def agree(rows, rhs):
    """The sparse answer, on the rows scaled to integers, equals the dense
    one; the input rows are untouched."""
    sp, b = reference_lp.integral(sparse(rows), rhs)
    copy = [dict(row) for row in sp]
    got = lp.feasible(sp, b)
    assert sp == copy
    assert got == reference_lp.feasible(rows, rhs)
    return got


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=1, max_size=6))
    extra = []
    for row in rows:
        kind = draw(st.sampled_from(["none", "none", "zero", "copy", "combination"]))
        if kind == "zero":
            extra.append([F(0)] * n)
        elif kind == "copy":
            extra.append(list(row))
        elif kind == "combination":  # rank-deficient: a multiple of a row plus another
            other = draw(st.sampled_from(rows))
            k = draw(SMALL)
            extra.append([k * a + b for a, b in zip(row, other)])
    rows = rows + extra
    if draw(st.booleans()):
        # consistent: b = A x for some x >= 0 with zeros (degenerate vertices)
        x = draw(st.lists(st.one_of(st.just(F(0)), SMALL.map(abs), HUGE.map(abs)), min_size=n, max_size=n))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        if draw(st.booleans()):  # a 10^-30 nudge that floats cannot see
            i = draw(st.integers(0, len(rows) - 1))
            rhs[i] += draw(st.sampled_from([F(1, BIG), F(-1, BIG)]))
    else:
        rhs = draw(st.lists(st.one_of(SMALL, HUGE), min_size=len(rows), max_size=len(rows)))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [rhs[i] for i in order]


def test_sparse_feasible_matches_dense_reference():
    answers = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(systems())
    def run(system):
        answers.append(agree(*system))

    run()
    # the generator is worth little if it mostly yields one verdict
    assert 0.2 < sum(answers) / len(answers) < 0.8


def test_thirty_digit_boundaries():
    eps = F(1, BIG)
    # x + y = 1 and x = 1 + 10^-30 leaves y = -10^-30: infeasible, though
    # 1 + 1e-30 == 1 in floating point
    assert not agree([[F(1), F(1)], [F(1), F(0)]], [F(1), 1 + eps])
    assert agree([[F(1), F(1)], [F(1), F(0)]], [F(1), 1 - eps])
    # coefficients whose ratio a truncating division would round
    a, b = F(BIG + 1, BIG - 1), F(BIG + 3, BIG + 1)
    assert agree([[a, -b]], [F(0)])
    assert not agree([[a, F(0)], [F(0), b], [F(1), F(-1)]], [a, b, eps])
    assert agree([[a, F(0)], [F(0), b], [F(1), F(-1)]], [a, b, F(0)])


def test_negative_right_hand_sides():
    assert agree([[F(-1), F(1)]], [F(-2)])  # x = 2 + y
    assert not agree([[F(1), F(1)]], [F(-1)])
    assert agree([[F(0)], [F(-3)]], [F(0), F(-1)])


def test_lift_check_agrees_with_max_flow_and_the_enumeration():
    rng = random.Random(31)
    names = ["u1", "u2", "u3"]
    states = [opaque_state(n) for n in names]
    answers = []

    def agree_on(pairs, d1, d2, den=None):
        partners = reference_refine.partner_map(pairs)
        answer = lift_check(partners, d1, d2)
        assert answer == reference_lp.lift_by_max_flow(partners, d1, d2)
        assert den is None or answer == _lift_bruteforce(pairs, d1, d2, den)
        answers.append(answer)

    for case in range(300):
        den = rng.choice([2, 3, 4, 5, 6])
        d1 = _random_dist(rng, names, den)
        if case % 3:
            d2 = _random_dist(rng, names, den)
        else:  # the same support, its weights reversed
            d2 = Distribution(zip(d1.support, [p for _, p in reversed(d1.items())]))
        pairs = set() if case % 10 == 0 else {(a, b) for a in states for b in states if rng.random() < 0.5}
        agree_on(pairs, d1, d2, den)
    # 30-digit weights, past the enumeration's reach; moving 10^-60 of mass
    # between two entries breaks the identity lifting
    identity = {(u, u) for u in states}
    for _ in range(50):
        weights = [rng.randrange(1, BIG) for _ in names]
        d1 = Distribution([(u, F(w, sum(weights))) for u, w in zip(states, weights)])
        (u1, p1), (u2, p2), (u3, p3) = d1.items()
        moved = Distribution([(u1, p1 + F(1, BIG**2)), (u2, p2 - F(1, BIG**2)), (u3, p3)])
        agree_on(identity, d1, d1)
        agree_on(identity, d1, moved)
        agree_on({(a, b) for a in states for b in states if rng.random() < 0.7}, d1, moved)
    assert 0.2 < sum(answers) / len(answers) < 0.8


def corpus_lps():
    """Every LP `corpus-run` makes on each corpus file, and every LP of the
    pair-deleting pbranching fixpoint on each corpus `.pts` file, which has a
    `w` variable per related pair, with no repeats."""
    seen = {}
    solve = lp.feasible

    def capture(rows, rhs):
        key = (tuple(tuple(sorted(row.items())) for row in rows), tuple(rhs))
        seen.setdefault(key, ([dict(row) for row in rows], list(rhs)))
        return solve(rows, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "feasible", capture)
        with redirect_stdout(io.StringIO()):
            main(["corpus-run", str(CORPUS)])
        for path in sorted(CORPUS.glob("*.pts")):
            reference_refine.prob_branching_bisim(load_pts(path.read_text()))
    return list(seen.values())


def test_corpus_lps_match_dense_reference():
    lps = corpus_lps()
    assert len(lps) > 100  # mostly the pair-deleting fixpoint's
    for rows, rhs in lps:
        assert lp.feasible(rows, rhs) == reference_lp.feasible(reference_lp.dense(rows), rhs)
