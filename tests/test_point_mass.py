"""Point-mass steps need no scheduler, in both places where pbranching asks
a probabilistic question.

The partition: on a PTS whose every step is a point mass, no move spreads
over blocks and a member almost surely reaches a set exactly when some inert
path reaches it, so `prob_branching_bisim` returns the branching partition.
Checked against the signing it skips, `_partition(ix, _pbranching_signatures)`,
and on systems of at most 5 states against the pair-deleting fixpoint of
`tests/reference_refine.py`: random point-mass systems weighted towards tau,
their stuttered copies, tau chains and cycles and the benchmark's `pb` and
`pbx` systems.  A spy shows that no signing runs on them and that one 2-point
step brings it back.

The per-pair LP: where every tau step of a weak phase is a point mass, its
flow rows sum to one convexity row (`bisim._weak_phase`).  Every such
question of `_block_match`, from a signing or from a per-pair check, gets
the answer the flow rows per state give, on a fixed-seed family whose tau
steps are point masses and whose other steps may spread; and the pbranching
NO witnesses of the planted tau chain build LPs of one flow row and a few
block rows, and equal the whole-system LP's."""

import random
from fractions import Fraction

import ptsskit.bisim as bisim
from ptsskit import lp
from ptsskit.terms import render_term
from tests import reference_refine
from tests.reference_refine import pairs
from tests.test_almost_sure import PLANTED, signing_spy, tau_chain, tau_cycle
from tests.test_refine_oracle import plain_pts, random_pts, stuttered_pts


def point_mass_pts(rng, k):
    """0-3 steps a state, labels weighted towards tau, every target a point mass."""
    return [(i, rng.choice(("tau", "tau", "tau", "a", "b")), {rng.randrange(k): Fraction(1)})
            for i in range(k) for _ in range(rng.randint(0, 3))]


def benchmark_pb_systems():
    # the `pb` and `pbx` systems of perfbench/workloads.py: |R| = 1, stuttered
    return [stuttered_pts(1, random_pts(random.Random(f"bisim/{cls}/{i}"), 1))
            for cls, count in (("pb", 16), ("pbx", 8)) for i in range(count)]


def point_mass_systems():
    for seed in range(600):
        k = 1 + seed % 8
        trans = point_mass_pts(random.Random(f"point-mass:{seed}"), k)
        yield plain_pts(k, trans)
        yield stuttered_pts(k, trans)
    yield from (tau_chain(n) for n in range(1, 31))
    yield from (tau_cycle(n, False) for n in range(1, 13))
    yield from benchmark_pb_systems()


def test_a_point_mass_system_is_decided_by_its_branching_partition():
    small = 0
    for pts in point_mass_systems():
        got = pairs(bisim.prob_branching_bisim(pts))
        assert got == pairs(bisim._partition(bisim._index(pts), bisim._pbranching_signatures))
        if len(pts.states) <= 5:
            assert got == reference_refine.prob_branching_bisim(pts).pairs
            small += 1
    assert small > 400


def _signings(monkeypatch, pts):
    """The calls that `decide("pbranching", pts)` makes of the signing and of `_almost_sure`."""
    with monkeypatch.context() as patch:
        calls = signing_spy(patch)
        bisim.decide("pbranching", pts)
    return calls


def test_a_point_mass_system_signs_nothing_and_one_spread_step_signs(monkeypatch):
    for pts in point_mass_systems():
        assert _signings(monkeypatch, pts) == []
    spread = _signings(monkeypatch, tau_chain(7, ["trans r0 --b-> { r1: 1/2, r2: 1/2 }"]))
    assert {"_pbranching_signatures", "_almost_sure"} <= set(spread)


def inert_point_mass_pts(rng, k):
    """1-3 steps a state; a tau step is a point mass, an `a` or `b` step
    spreads over two states half the time."""
    trans = []
    for i in range(k):
        for _ in range(rng.randint(1, 3)):
            label = rng.choice(("tau", "tau", "a", "b"))
            if label == "tau" or k < 2 or rng.random() < 0.5:
                trans.append((i, label, {rng.randrange(k): Fraction(1)}))
            else:
                u, v = rng.sample(range(k), 2)
                w = Fraction(rng.randint(1, 3), 4)
                trans.append((i, label, {u: w, v: 1 - w}))
    return trans


def _per_state(reach, taus):
    return {u: i for i, u in enumerate(reach)}, taus, len(reach)


def test_one_convexity_row_answers_as_the_flow_rows_per_state(monkeypatch):
    # `_block_match` asked by a per-pair check, with the queried pair, and by a signing, without
    asked = {"pair": 0, "signing": 0}
    block_match, weak_phase = bisim._block_match, bisim._weak_phase

    def match(*args):
        reached = []
        with monkeypatch.context() as patch:
            patch.setattr(bisim, "_weak_phase", lambda reach, taus: reached.append(len(reach)) or weak_phase(reach, taus))
            got = block_match(*args)
        if reached and reached[0] > 1:  # a phase over several states: one row where there were several
            with monkeypatch.context() as patch:
                patch.setattr(bisim, "_weak_phase", _per_state)
                assert block_match(*args) == got, args[2:]
            asked["signing" if args[6] is None else "pair"] += 1
        return got

    monkeypatch.setattr(bisim, "_block_match", match)
    for seed in range(150):
        k = 2 + seed % 6
        trans = inert_point_mass_pts(random.Random(f"inert-point-mass:{seed}"), k)
        for pts in (plain_pts(k, trans), stuttered_pts(k, trans)):
            decision = bisim.decide("pbranching", pts)
            for s in pts.states:
                for t in pts.states:
                    decision.witness(s, t)
    assert asked["pair"] > 2000 and asked["signing"] > 1000, asked


def test_the_planted_tau_chain_witnesses_take_one_flow_row(monkeypatch):
    pts = tau_chain(250, PLANTED)
    named = {render_term(u): u for u in pts.states}
    decision = bisim.decide("pbranching", pts)
    pairs_ = [(f"r{i}", "r246") for i in range(0, 246, 35)]
    pairs_ += [(t, s) for s, t in pairs_]
    flows, solved = [], []
    weak_phase, feasible = bisim._weak_phase, lp.feasible

    def counted(reach, taus):
        phase = weak_phase(reach, taus)
        flows.append(phase[2])
        return phase

    with monkeypatch.context() as patch:
        patch.setattr(bisim, "_weak_phase", counted)
        patch.setattr(lp, "feasible", lambda rows, rhs: solved.append(len(rows)) or feasible(rows, rhs))
        witnesses = [decision.witness(named[s], named[t]) for s, t in pairs_]
    # one flow row, the rows of the blocks of the challenge and of the pair and the
    # pair's four, however long the chain: no row per reached state
    assert solved and max(solved) <= 8
    assert set(flows) == {1}
    with monkeypatch.context() as patch:
        patch.setattr(bisim, "_pbranching_check", reference_refine.widened(reference_refine.pbranching_check))
        assert witnesses == [decision.witness(named[s], named[t]) for s, t in pairs_]
    assert all(w is not None for w in witnesses)
