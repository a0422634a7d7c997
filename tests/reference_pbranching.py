"""Probabilistic branching bisimulation from its definition, as a test of a
partition, for small systems.

A partition P of the states of a PTS is a probabilistic branching
bisimulation when, for every pair s, t in one block, every challenge
s --a-> mu passes one of two tests:

* it is inert: a = tau and mu puts all its mass in P(s); or
* t matches it by a weak combined transition inside P(t) followed by a
  combined a-step, where for a = tau a stopped unit may instead stay put,
  and the combined target puts on every block of P the mass mu puts there.

The weak phase ranges over randomised schedulers (Segala, "Modeling and
verification of randomized distributed real-time systems", PhD thesis, MIT
1995) and is written, as in Andova, Georgievska and Trcka, "Branching
bisimulation for probabilistic systems: characteristics and decidability"
(TCS 2012), by its occupation measure.  Letting a stopped unit stay put is
the (tau) clause of van Glabbeek and Weijland, "Branching time and
abstraction in bisimulation semantics" (JACM 1996), taken per unit as in
those combined transitions.  Lifting by a partition is equal mass on each
block.

The second test is one linear feasibility question in `Fraction`s, solved
by the dense simplex of `tests/reference_lp.py`.  All mass starts at t and
no step of the weak phase leaves P(t), so the question spans P(t):

* an occupation x_j >= 0 for every tau-step j of a state of P(t) whose
  support lies in P(t);
* a weight y >= 0 for every choice of a stopped unit at a state u of P(t):
  one of u's a-steps or, for a = tau, staying put at u;
* flow: for every u in P(t), the occupations of u's steps plus its stop
  mass, the weight of its choices, less the mass those occupations send
  into u, equal 1 if u = t and 0 otherwise;
* masses: for every block B, the weighted masses the choices put on B
  (staying put puts 1 on P(t)) equal mu(B).  A choice that puts mass on a
  block where mu puts none can take no weight, so it takes no column, and a
  block where mu puts none then takes no row.

Written over every state and block of the system, with a column for each
state's stop mass, the question has the same answer: the states outside
P(t) receive no mass, and the columns left out are those forced to 0.

`PAPER.md` holds only the abstract of the source paper (arXiv:1509.08564),
so this reading rests on the sources above and on the paper's use of the
relation as an equivalence, whose greatest instance is a congruence.  No
name of `ptsskit.bisim` is used: the PTS is read off `pts.transitions`.

Only for systems of at most 6 states (203 partitions).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ptsskit.engine import PTS, PtsTransition
from ptsskit.terms import Term
from tests.reference_lp import feasible


def _block_masses(block: dict[Term, int], tr: PtsTransition) -> dict[int, Fraction]:
    acc: dict[int, Fraction] = {}
    for u, p in tr.target.items():
        acc[block[u]] = acc.get(block[u], Fraction(0)) + p
    return acc


def matched(pts: PTS, block: dict[Term, int], challenge: PtsTransition, t: Term) -> bool:
    """Does `t` match `challenge` by a weak combined transition inside its
    block and a combined step (or, for tau, staying put) with the same block
    masses?  `block` numbers each state's block.  One LP over the states of
    t's block, as no other state receives mass; a step or a stay that puts
    mass on a block where the challenge puts none takes no weight, so it
    takes no column."""
    label, want = challenge.label, _block_masses(block, challenge)
    num = {u: i for i, u in enumerate(u for u in pts.states if block[u] == block[t])}
    taus = [tr for tr in pts.transitions if tr.label == "tau" and tr.source in num and num.keys() >= set(tr.target.support)]
    # the stopping units' choices: each with its state and its block masses
    choices = [(num[tr.source], _block_masses(block, tr)) for tr in pts.transitions
               if tr.label == label and tr.source in num]
    if label == "tau":
        choices += [(x, {block[t]: Fraction(1)}) for x in num.values()]
    choices = [(x, masses) for x, masses in choices if want.keys() >= masses.keys()]
    # a flow row a state, whose stop mass is the weight of its choices, then a row a block with mass
    rows = [[Fraction(0)] * (len(taus) + len(choices)) for _ in range(len(num) + len(want))]
    for j, tr in enumerate(taus):
        rows[num[tr.source]][j] += 1
        for u, p in tr.target.items():
            rows[num[u]][j] -= p
    lift = {b: i for i, b in enumerate(want, len(num))}
    for j, (x, masses) in enumerate(choices, len(taus)):
        rows[x][j] = Fraction(1)
        for b, p in masses.items():
            rows[lift[b]][j] = p
    return feasible(rows, [Fraction(u == t) for u in num] + list(want.values()))


def is_bisimulation(pts: PTS, blocks: Sequence[Sequence[Term]]) -> bool:
    """Does every challenge of every state pass, against every other member
    of its block, the inert test or the LP?"""
    block = {u: i for i, b in enumerate(blocks) for u in b}
    asked: dict[tuple, bool] = {}
    for b in blocks:
        for s in b:
            for tr in (tr for tr in pts.transitions if tr.source == s):
                if tr.label == "tau" and all(block[u] == block[s] for u in tr.target.support):
                    continue
                key = (tr.label, tuple(sorted(_block_masses(block, tr).items())))
                for t in b:
                    if t != s and (key, t) not in asked:
                        asked[key, t] = matched(pts, block, tr, t)
                    if t != s and not asked[key, t]:
                        return False
    return True
