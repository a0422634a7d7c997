"""The pbranching per-pair match, `bisim._block_match` asked with the queried
pair, against the whole-system LP it replaced (`reference_refine.combined_match`):
for every (challenge, t) that `bisim._pbranching_check` asks, both give the
same answer.  The checks are asked by deciding each system, by one more sweep
of the check over the relation, by a NO witness for every unrelated pair, and
on systems of at most 5 states by the check of every partition of the states
taken as the relation, each until a pair fails it.  Then, for every ordered
pair, the library's check fails the same first challenge as the oracle's own
per-pair loop over the whole-system LP, against the pbranching partition
widened by the pair.  Fixed-seed systems: the random plain and stuttered
families of `tests/test_refine_oracle.py`, the tau-heavy and plain families of
`tests/test_partition_oracle.py` with tau-heavy draw 2611 and not-transitive,
tau chains with a planted unrelated pair, and the corpus `.pts` files.  Last,
a challenge entry with no partner among the states t's steps reach is
answered with no LP, though those steps reach t's own block."""

import random

import ptsskit.bisim as bisim
from ptsskit import lp
from ptsskit.engine import load_pts
from ptsskit.terms import render_term
from tests import reference_refine
from tests.conftest import CORPUS
from tests.reference_partitions import partitions
from tests.test_almost_sure import PLANTED, tau_chain
from tests.test_partition_oracle import _not_transitive, _tau_heavy, tau_heavy_pts
from tests.test_refine_oracle import plain_pts, random_pts, stuttered_pts


def _systems():
    for seed in range(3):
        yield from (plain_pts(k, random_pts(random.Random(f"refine:{seed}:{k}"), k)) for k in range(1, 17))
    for seed in range(4):
        yield from (stuttered_pts(k, random_pts(random.Random(f"stutter:{seed}:{k}"), k)) for k in range(1, 5))
    yield from (plain_pts(4, tau_heavy_pts(random.Random(f"partitions:tau_heavy:{seed}"))) for seed in range(200))
    yield from (_tau_heavy(2611), _not_transitive())
    yield from (plain_pts(5, random_pts(random.Random(f"partitions:plain:{seed}"), 5)) for seed in range(200))
    yield from (tau_chain(n, PLANTED) for n in (1, 2, 3, 7, 8, 15, 30))
    yield from (load_pts(path.read_text()) for path in sorted(CORPUS.glob("*.pts")))


def _widened(block, s, t):
    """The partition `block` widened by the pair s, t, as the oracle reads a relation."""
    return lambda x, y: block[x] == block[y] or (x, y) in ((s, t), (t, s))


class Tally:
    """Answers each (challenge, t) that a per-pair check asks of `_block_match`
    by it and by the oracle, asserts that they agree, and counts the
    questions, the YES answers and the questions it answers with no LP."""

    def __init__(self):
        self.asked = self.matched = self.no_lp = 0
        self.match = bisim._block_match

    def both(self, ix, block, reach, inert, label, key, pair):
        solved = []
        feasible = lp.feasible
        lp.feasible = lambda rows, rhs: solved.append(len(rows)) or feasible(rows, rhs)
        try:
            got = self.match(ix, block, reach, inert, label, key, pair)
        finally:
            lp.feasible = feasible
        if pair is None:  # a signing's question, of a move's block masses
            return got
        s, t, (_, _, targets, weights) = pair
        related = _widened(block, s, t)
        # the oracle's preserving set: every tau-step whose support lies among its source's partners
        preserving = [step for step in (reference_refine.index_step(ix, tr) for out in ix.out for tr in out)
                      if step[1] == "tau" and all(related(step[0], v) for v in step[2])]
        assert got == reference_refine.combined_match(ix, related, preserving, label, targets, weights, t), pair
        self.asked += 1
        self.matched += got
        self.no_lp += not solved
        return got


def _ask(pts):
    ix, decision = bisim._index(pts), bisim.decide("pbranching", pts)
    num = ix.num
    check = bisim._pbranching_check(pts, decision.relation._block)
    for s in pts.states:
        for t in pts.states:
            if decision.related(s, t):
                assert check(num[s], num[t]) is None
            else:
                assert decision.witness(s, t) is not None
    if len(pts.states) <= 5:
        for blocks in partitions(pts.states):
            block = [next(b for b, members in enumerate(blocks) if u in members) for u in pts.states]
            check = bisim._pbranching_check(pts, block)
            all(check(num[s], num[t]) is None for b in blocks for s in b for t in b if s is not t)


def test_the_reach_lp_agrees_with_the_whole_system_lp(monkeypatch):
    tally = Tally()
    monkeypatch.setattr(bisim, "_block_match", tally.both)
    for pts in _systems():
        _ask(pts)
    assert tally.asked > 30000
    assert 0.2 < tally.matched / tally.asked < 0.8
    assert 0.2 < tally.no_lp / tally.asked < 0.8


def test_every_pair_fails_the_oracles_first_challenge():
    unmatched = 0
    for pts in _systems():
        decision = bisim.decide("pbranching", pts)
        block = decision.relation._block
        check = bisim._pbranching_check(pts, block)
        for x in range(len(pts.states)):
            for y in range(len(pts.states)):
                oracle = reference_refine.pbranching_check(pts, _widened(block, x, y))
                got = check(x, y)
                assert got == oracle(x, y), (x, y)
                unmatched += got is not None
    assert unmatched > 8000


# s and x share a block, t has one of its own: s's a-step puts half its mass
# on x, and no a-step of t reaches the block of s and x, only t itself
NO_PARTNER = """state s
state x
state y
state t
trans s --a-> { x: 1/2, y: 1/2 }
trans x --a-> { x: 1/2, y: 1/2 }
trans t --a-> { t: 1/2, y: 1/2 }
trans t --a-> { y: 1 }
"""


def test_a_challenge_entry_without_a_partner_asks_no_lp(monkeypatch):
    # x is related to the block of s alone, which t's steps never reach (t
    # relates only to s), so the witness needs no LP: the blocks of s and t
    # are not one block for an entry other than s
    pts = load_pts(NO_PARTNER)
    decision = bisim.decide("pbranching", pts)
    s, t, x = (next(u for u in pts.states if render_term(u) == name) for name in "stx")
    assert decision.related(s, x) and not decision.related(s, t)
    solved = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda rows, rhs: solved.append(len(rows)) or feasible(rows, rhs))
    assert decision.witness(s, t) == (s, pts.transitions[0])
    assert solved == []
