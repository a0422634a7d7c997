"""The branching per-pair check, `bisim._branching_check`, against the
oracle's own per-pair loop and concrete-execution search
(`reference_refine.first_unmatched` and `reference_refine.execution_match`):
for every pair of states, against the branching relation with the pair added
(the relation a NO witness checks against), both ask `lift_check` the same
lifts in the same order, stop at the same one and fail the same challenge.
Fixed-seed systems: the random plain and stuttered families of
`tests/test_refine_oracle.py`, the tau-heavy family of
`tests/test_partition_oracle.py`, tau chains with a planted unrelated pair
(`tests/test_almost_sure.py`), the corpus `.pts` files, and `mixed_choice.pts`
with ROADMAP item 10's x and y.  On the same systems, every rooted witness is
the one the hand-written rooted loop of `reference_refine.rooted_challenge`
finds, lifting by class masses."""

import functools
import random

import ptsskit.bisim as bisim
from ptsskit.engine import load_pts
from ptsskit.terms import render_term
from tests import reference_refine
from tests.conftest import CORPUS
from tests.test_almost_sure import PLANTED, tau_chain
from tests.test_partition_oracle import tau_heavy_pts
from tests.test_refine_oracle import plain_pts, random_pts, stuttered_pts


def _systems():
    for seed in range(3):
        yield from (plain_pts(k, random_pts(random.Random(f"refine:{seed}:{k}"), k)) for k in range(1, 17))
    for seed in range(4):
        yield from (stuttered_pts(k, random_pts(random.Random(f"stutter:{seed}:{k}"), k)) for k in range(1, 9))
    yield from (plain_pts(4, tau_heavy_pts(random.Random(f"partitions:tau_heavy:{seed}"))) for seed in range(200))
    yield from (tau_chain(n, PLANTED) for n in (2, 7, 15, 30))
    yield from (load_pts(path.read_text()) for path in sorted(CORPUS.glob("*.pts")))
    yield load_pts((CORPUS / "mixed_choice.pts").read_text() + X_Y)


# x and y each take one c-step, to t1 and to u1, which pbranching relates and branching does not
X_Y = "state x\nstate y\ntrans x --c-> { t1: 1 }\ntrans y --c-> { u1: 1 }\n"


def _witness(check, s, t):
    """The first challenge that `check` finds unmatched, from s then from t."""
    return next(((x, tr) for x, y in ((s, t), (t, s)) if (tr := check(x, y)) is not None), None)


def test_the_execution_search_asks_the_oracles_lifts(monkeypatch):
    asked = []  # (d1, d2, lifted) of each lift, in order
    lift_check = bisim.lift_check

    def spy(partners, d1, d2):
        lifted = lift_check(partners, d1, d2)
        asked.append((d1, d2, lifted))
        return lifted

    def run(check, s, t):
        asked.clear()
        return _witness(check, s, t), list(asked)

    monkeypatch.setattr(bisim, "lift_check", spy)
    lifts = lifted = pairs = 0
    for pts in _systems():
        ix, decision = bisim._index(pts), bisim.decide("branching", pts)
        for s in pts.states:
            for t in pts.states:
                table = {u: decision.relation.partners(u) for u in pts.states}
                table[s], table[t] = table[s] | {t}, table[t] | {s}
                lift = functools.partial(bisim.lift_check, table)
                oracle = reference_refine.first_unmatched(
                    ix, table, lambda x, tr, step, y: reference_refine.execution_match(ix, table, x, tr, y, lift))
                got = run(bisim._branching_check(pts, table), s, t)
                assert got == run(oracle, s, t), (s, t)
                if not decision.related(s, t):
                    assert decision.witness(s, t) == got[0]
                pairs += got[0] is not None
                lifts += len(got[1])
                lifted += sum(answer for _, _, answer in got[1])
    assert pairs > 10000 and lifts > 12000
    assert 0.2 < lifted / lifts < 0.8


def test_rooted_witnesses_are_the_hand_written_loops():
    no = 0
    for pts in _systems():
        decision = bisim.decide("rooted", pts)
        lifted = reference_refine.by_class_masses(decision.relation)
        for s in pts.states:
            for t in pts.states:
                want = reference_refine.rooted_challenge(pts, s, t, lifted)
                assert decision.witness(s, t) == want, (s, t)
                no += want is not None
    named = {render_term(u): u for u in pts.states}  # the last system: mixed_choice.pts with x and y
    x, challenge = decision.witness(named["x"], named["y"])
    assert (x, repr(challenge)) == (named["x"], "x --c-> {t1: 1}")
    assert no > 10000
