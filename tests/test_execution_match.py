"""The branching per-pair check, `bisim._branching_check`, against the
oracle's own per-pair loop and concrete-execution search
(`reference_refine.first_unmatched` and `reference_refine.execution_match`)
lifting by `lift_check` over the table of the branching relation widened by
the pair: for every ordered pair of states, the library's check, which lifts
by block masses (`bisim._lifts`), fails the same first challenge, and the
block-mass lift gives `lift_check`'s answer on every lift the oracle asks.
Fixed-seed systems: the random plain and stuttered families of
`tests/test_refine_oracle.py`, the tau-heavy family of
`tests/test_partition_oracle.py` with tau-heavy draw 2611 and not-transitive,
tau chains with a planted unrelated pair (`tests/test_almost_sure.py`), the
corpus `.pts` files, and `mixed_choice.pts` with ROADMAP item 10's x and y.
On the same systems, every rooted witness is the one the hand-written rooted
loop of `reference_refine.rooted_challenge` finds, lifting by class masses."""

import random

import ptsskit.bisim as bisim
from ptsskit.engine import load_pts
from ptsskit.terms import render_term
from tests import reference_refine
from tests.conftest import CORPUS
from tests.test_almost_sure import PLANTED, tau_chain
from tests.test_partition_oracle import _not_transitive, _tau_heavy, tau_heavy_pts
from tests.test_refine_oracle import plain_pts, random_pts, stuttered_pts


def _systems():
    for seed in range(3):
        yield from (plain_pts(k, random_pts(random.Random(f"refine:{seed}:{k}"), k)) for k in range(1, 17))
    for seed in range(4):
        yield from (stuttered_pts(k, random_pts(random.Random(f"stutter:{seed}:{k}"), k)) for k in range(1, 9))
    yield from (plain_pts(4, tau_heavy_pts(random.Random(f"partitions:tau_heavy:{seed}"))) for seed in range(200))
    yield from (_tau_heavy(2611), _not_transitive())
    yield from (tau_chain(n, PLANTED) for n in (2, 7, 15, 30))
    yield from (load_pts(path.read_text()) for path in sorted(CORPUS.glob("*.pts")))
    yield load_pts((CORPUS / "mixed_choice.pts").read_text() + X_Y)


# x and y each take one c-step, to t1 and to u1, which pbranching relates and branching does not
X_Y = "state x\nstate y\ntrans x --c-> { t1: 1 }\ntrans y --c-> { u1: 1 }\n"


def _witness(check, states, i, j):
    """The first challenge that `check` finds unmatched, from the i-th state
    of `states` then from the j-th, with its state."""
    return next(((states[x], tr) for x, y in ((i, j), (j, i)) if (tr := check(x, y)) is not None), None)


def _step(ix, d):
    """The distribution `d` as a step of the index `ix`: state numbers and weights times `ix.scale`."""
    return -1, "", tuple([ix.num[u] for u, _ in d.items()]), tuple([p.numerator * (ix.scale // p.denominator)
                                                                  for _, p in d.items()])


def test_the_execution_search_fails_the_oracles_challenge():
    lifts = lifted = pairs = 0
    for pts in _systems():
        ix, decision = bisim._index(pts), bisim.decide("branching", pts)
        block = decision.relation._block
        partners = reference_refine.partner_map(decision.relation)
        check = bisim._branching_check(pts, block)
        for s in pts.states:
            for t in pts.states:
                i, j = ix.num[s], ix.num[t]
                widened = reference_refine.numbered(ix, lambda u, v: v in partners[u] or {u, v} == {s, t})
                table = {**partners, s: partners[s] | {t}, t: partners[t] | {s}}

                def lift(d1, d2):
                    nonlocal lifts, lifted
                    answer = bisim.lift_check(table, d1, d2)
                    assert bisim._lifts(block, i, j, _step(ix, d1), _step(ix, d2)) == answer, (s, t, d1, d2)
                    lifts += 1
                    lifted += answer
                    return answer

                oracle = reference_refine.first_unmatched(
                    ix, widened, lambda x, tr, step, y: reference_refine.execution_match(ix, widened, x, tr, y, lift))
                got = _witness(check, pts.states, i, j)
                assert got == _witness(oracle, pts.states, i, j), (s, t)
                if not decision.related(s, t):
                    assert decision.witness(s, t) == got
                pairs += got is not None
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
