"""The one-block pbranching matches: a member of a block matches a move
(label, B) whose target lies in the one block B exactly when it almost surely
reaches, by inert steps, a member that has that move (`bisim._almost_sure`).
Checked against that match's LP, `bisim._block_match` with the key written as
block masses, on every one-block key of every signing that refinement asks
for: fixed-seed tau-heavy, plain and stuttered systems, tau chains, tau
cycles, and a block whose inert step leaks into a dead end, where plain
reachability holds and almost-sure reachability fails.  Then the saving: the
tau chain and the benchmark's `pb` family decide with no one-block LP."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import ptsskit.bisim as bisim
from ptsskit import lp
from ptsskit.engine import load_pts
from ptsskit.terms import render_term
from tests.test_partition_oracle import tau_heavy_pts
from tests.test_refine_oracle import plain_pts, random_pts, stuttered_pts


def tau_chain(n):
    """r_i --tau-> r_{i+1} for i < n-1, a `b` self-loop on every seventh
    state, and r_{n-1} --a-> r_0: every target a point mass."""
    lines = [f"state r{i}" for i in range(n)]
    lines += [f"trans r{i} --tau-> {{ r{i + 1}: 1 }}" for i in range(n - 1)]
    lines += [f"trans r{i} --b-> {{ r{i}: 1 }}" for i in range(0, n, 7)]
    lines.append(f"trans r{n - 1} --a-> {{ r0: 1 }}")
    return load_pts("\n".join(lines) + "\n")


def tau_cycle(n, spread):
    """r_i --tau-> r_{i+1 mod n}, or with `spread` half back to r_{i-1 mod n};
    r_0 --a-> r_0 and a `b` step from every third state to r_1."""
    trans = []
    for i in range(n):
        target = {(i + 1) % n: Fraction(1)}
        if spread and n > 2:
            target = {(i + 1) % n: Fraction(1, 2), (i - 1) % n: Fraction(1, 2)}
        trans.append((i, "tau", target))
        if i % 3 == 2:
            trans.append((i, "b", {1 % n: Fraction(1)}))
    trans.append((0, "a", {0: Fraction(1)}))
    return plain_pts(n, trans)


# s reaches g, which has an a-step, but its one inert step leaves half its
# mass in d, a dead end: d has no step, or only an inert self-loop
LEAKS = [
    "state s\nstate g\nstate d\nstate x\ntrans s --tau-> { g: 1/2, d: 1/2 }\ntrans g --a-> { x: 1 }\n",
    "state s\nstate g\nstate d\nstate x\ntrans s --tau-> { g: 1/2, d: 1/2 }\ntrans g --a-> { x: 1 }\n"
    "trans d --tau-> { d: 1 }\n",
]


class Tally:
    """Compares, on every signing, each member's answer on each one-block key
    of its block that it lacks with the LP, for `stay` on and off, and counts
    the answers compared, those the LP finds feasible, and those where the
    member reaches the key by inert steps but not almost surely."""

    def __init__(self):
        self.compared = self.feasible = self.leaks = 0

    def signing(self, ix, block, members, moves, inert, reach):
        sigs = bisim._pbranching_signatures(ix, block, members, moves, inert, reach)
        keys = sorted({c for x in members for c in moves[x] if type(c[1]) is int})
        for stay in (True, False):
            signed = sigs if stay else bisim._pbranching_signatures(ix, block, members, moves, inert, reach, False)
            for t, sig in zip(members, signed):
                reach_t = reach[t] or [t]
                assert sig >= moves[t]
                for label, b in keys:
                    if (label, b) in moves[t]:
                        continue
                    key = frozenset({(b, ix.scale)})
                    matched = bisim._block_match(ix, block, reach_t, inert, label, key, stay)
                    assert ((label, b) in sig) == matched, (render_term(ix.states[t]), label, b, stay)
                    self.compared += 1
                    self.feasible += matched
                    self.leaks += not matched and any((label, b) in moves[u] for u in reach_t)
        return sigs

    def run(self, pts):
        bisim._partition(bisim._index(pts), self.signing)


def _systems():
    yield from (plain_pts(4, tau_heavy_pts(random.Random(f"partitions:tau_heavy:{seed}"))) for seed in range(500))
    yield from (plain_pts(6, tau_heavy_pts(random.Random(f"almost-sure:tau_heavy:{seed}"), 6)) for seed in range(100))
    yield from (plain_pts(5, random_pts(random.Random(f"partitions:plain:{seed}"), 5)) for seed in range(200))
    for seed in range(3):
        yield from (plain_pts(k, random_pts(random.Random(f"refine:{seed}:{k}"), k)) for k in range(1, 13))
    for seed in range(4):
        yield from (stuttered_pts(k, random_pts(random.Random(f"stutter:{seed}:{k}"), k)) for k in range(1, 5))
    yield from (tau_chain(n) for n in range(1, 31))
    yield from (tau_cycle(n, spread) for n in range(1, 13) for spread in (False, True))


def test_the_fixpoint_agrees_with_the_lp_on_every_one_block_key():
    tally = Tally()
    for pts in _systems():
        tally.run(pts)
    # the same counts as with the LP deciding these keys
    assert (tally.compared, tally.feasible, tally.leaks) == (14626, 7842, 800)


@pytest.mark.parametrize("text", LEAKS)
def test_an_inert_step_into_a_dead_end_is_no_sure_match(text):
    tally = Tally()
    tally.run(load_pts(text))
    assert tally.leaks > 0
    decision = bisim.decide("pbranching", load_pts(text))
    assert [[render_term(u) for u in c] for c in decision.classes()] == [["d", "x"], ["g"], ["s"]]


# the pbranching classes of tau_chain(60) when the LP decided its one-block
# keys (319 LPs), as the sha256 of their rendered states in JSON
TAU_CHAIN_60_CLASSES_SHA256 = "84595d177745d203180051dd5c185472a38ac063882d9b78a259e59aec7c2b08"


def test_the_tau_chain_decides_with_no_lp(monkeypatch):
    calls = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda rows, rhs: calls.append(len(rows)) or feasible(rows, rhs))
    decision = bisim.decide("pbranching", tau_chain(60))
    classes = [[render_term(u) for u in c] for c in decision.classes()]
    assert sorted(map(len, classes), reverse=True) == [57, 3]
    assert hashlib.sha256(json.dumps(classes).encode()).hexdigest() == TAU_CHAIN_60_CLASSES_SHA256
    assert calls == []


def test_the_benchmark_pb_family_matches_no_one_block_key_by_lp(monkeypatch):
    # the `pb` and `pbx` systems of perfbench/workloads.py: |R| = 1, stuttered
    keys = []
    block_match = bisim._block_match
    monkeypatch.setattr(bisim, "_block_match", lambda *args: keys.append(args[5]) or block_match(*args))
    for cls, count in (("pb", 16), ("pbx", 8)):
        for i in range(count):
            pts = stuttered_pts(1, random_pts(random.Random(f"bisim/{cls}/{i}"), 1))
            named = {render_term(u): u for u in pts.states}
            decision = bisim.decide("pbranching", pts)
            assert decision.related(named["r0"], named["c0"])
            assert decision.witness(named["p"], named["q"]) is not None
    assert [key for key in keys if type(key) is int] == []
