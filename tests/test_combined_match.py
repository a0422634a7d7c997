"""The pbranching per-pair LP over reach(t), `bisim._combined_match`, against
the whole-system LP it replaced (`reference_refine.combined_match`): for
every (challenge, t) that `bisim._pbranching_check` asks, both give the same
answer.  The checks are asked by deciding each system, by one more sweep of
the check over the relation, by a NO witness for every unrelated pair, and
on systems of at most 5 states by the check of every partition of the
states taken as the relation, each until a pair fails it.  Fixed-seed systems: the random plain and
stuttered families of `tests/test_refine_oracle.py`, the tau-heavy and plain
families of `tests/test_partition_oracle.py` with tau-heavy draw 2611, tau
chains with a planted unrelated pair, and the corpus `.pts` files."""

import random

import ptsskit.bisim as bisim
from ptsskit import lp
from ptsskit.engine import load_pts
from tests import reference_refine
from tests.conftest import CORPUS
from tests.reference_partitions import partitions
from tests.test_almost_sure import PLANTED, tau_chain
from tests.test_partition_oracle import tau_heavy_pts
from tests.test_refine_oracle import plain_pts, random_pts, stuttered_pts


def _systems():
    for seed in range(3):
        yield from (plain_pts(k, random_pts(random.Random(f"refine:{seed}:{k}"), k)) for k in range(1, 17))
    for seed in range(4):
        yield from (stuttered_pts(k, random_pts(random.Random(f"stutter:{seed}:{k}"), k)) for k in range(1, 5))
    yield from (plain_pts(4, tau_heavy_pts(random.Random(f"partitions:tau_heavy:{seed}"))) for seed in range(200))
    yield plain_pts(4, tau_heavy_pts(random.Random("components:tau_heavy:2611")))
    yield from (plain_pts(5, random_pts(random.Random(f"partitions:plain:{seed}"), 5)) for seed in range(200))
    yield from (tau_chain(n, PLANTED) for n in (1, 2, 3, 7, 8, 15, 30))
    yield from (load_pts(path.read_text()) for path in sorted(CORPUS.glob("*.pts")))


class Tally:
    """Answers each (challenge, t) by the new LP and by the oracle, asserts
    that they agree, and counts the questions, the YES answers and the
    questions the new LP answers with no LP at all."""

    def __init__(self):
        self.asked = self.matched = self.no_lp = 0
        self.match = bisim._combined_match

    def both(self, ix, related, *question):
        solved = []
        feasible = lp.feasible
        lp.feasible = lambda rows, rhs: solved.append(len(rows)) or feasible(rows, rhs)
        try:
            got = self.match(ix, related, *question)
        finally:
            lp.feasible = feasible
        # the oracle's preserving set: every tau-step whose support lies among its source's partners
        preserving = [step for step in (reference_refine.index_step(ix, tr) for out in ix.out for tr in out)
                      if step[1] == "tau" and all(related(step[0], v) for v in step[2])]
        assert got == reference_refine.combined_match(ix, related, preserving, *question), question
        self.asked += 1
        self.matched += got
        self.no_lp += not solved
        return got


def _ask(pts):
    ix, decision = bisim._index(pts), bisim.decide("pbranching", pts)
    num = ix.num
    check = bisim._pbranching_check(pts, reference_refine.numbered(ix, decision.related))
    for s in pts.states:
        for t in pts.states:
            if decision.related(s, t):
                assert check(num[s], num[t]) is None
            else:
                assert decision.witness(s, t) is not None
    if len(pts.states) <= 5:
        for blocks in partitions(pts.states):
            block = {u: b for b in blocks for u in b}
            check = bisim._pbranching_check(pts, reference_refine.numbered(ix, lambda u, v: v in block[u]))
            all(check(num[s], num[t]) is None for b in blocks for s in b for t in b if s is not t)


def test_the_reach_lp_agrees_with_the_whole_system_lp(monkeypatch):
    tally = Tally()
    monkeypatch.setattr(bisim, "_combined_match", tally.both)
    for pts in _systems():
        _ask(pts)
    assert tally.asked > 30000
    assert 0.2 < tally.matched / tally.asked < 0.8
    assert 0.2 < tally.no_lp / tally.asked < 0.8
