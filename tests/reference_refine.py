"""The pair-deleting fixpoint that `ptsskit.bisim` replaced by partition
refinement, kept as a test oracle.

`_refine` starts from every pair of states and, each sweep, keeps the pairs
that pass the kind's per-pair check in both directions against the relation
of the sweep before; it stops when a sweep deletes nothing.  Lifting goes
through `lift_check`'s exact max-flow, and the pbranching check solves one LP
with a `w` variable per related pair; rooted pairs lift by max-flow as well.
`PairRelation` holds a result as a pair set, whose `.pairs` the tests compare
with `pairs(rel)` of a library `StateRelation`; `is_equivalence(rel)` reads
either kind of relation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from ptsskit.bisim import PairCheck, _branching_check, _pbranching_check, lift_check
from ptsskit.engine import PTS, PtsTransition
from ptsskit.terms import Term, render_term


class PairRelation:
    """A set of state pairs with constant-time membership."""

    def __init__(self, states: Sequence[Term], pairs: Iterable[tuple[Term, Term]]):
        self.states = tuple(states)
        self.pairs = frozenset(pairs)
        self.table: dict[Term, set[Term]] = {}
        for s, t in self.pairs:
            self.table.setdefault(s, set()).add(t)

    def related(self, s: Term, t: Term) -> bool:
        return (s, t) in self.pairs

    def partners(self, s: Term) -> set[Term]:
        return self.table.get(s, set())


def pairs(rel) -> frozenset[tuple[Term, Term]]:
    """Every related pair of a `StateRelation` or `PairRelation`, n² of them for one block."""
    return frozenset((s, t) for s in rel.states for t in rel.partners(s))


def is_equivalence(rel) -> bool:
    """Whether each state is among its partners and shares their partner set."""
    return all(
        s in rel.partners(s) and all(rel.partners(t) == rel.partners(s) for t in rel.partners(s))
        for s in rel.states
    )


def _refine(pts: PTS, make_check: Callable[[PTS, Mapping[Term, set]], PairCheck]) -> PairRelation:
    states = sorted(pts.states, key=render_term)
    pairs = {(s, t) for s in states for t in states}
    while True:
        table: dict[Term, set] = {}
        for s, t in pairs:
            table.setdefault(s, set()).add(t)
        check = make_check(pts, table)
        matched = {
            pair
            for pair in sorted(pairs, key=lambda p: (render_term(p[0]), render_term(p[1])))
            if check(*pair) is None
        }
        new_pairs = {(s, t) for (s, t) in matched if (t, s) in matched}
        if new_pairs == pairs:
            return PairRelation(states, pairs)
        pairs = new_pairs


def branching_bisim(pts: PTS) -> PairRelation:
    return _refine(pts, _branching_check)


def prob_branching_bisim(pts: PTS) -> PairRelation:
    return _refine(pts, _pbranching_check)


def rooted_challenge(
    pts: PTS, bb: PairRelation, s: Term, t: Term
) -> Optional[tuple[Term, PtsTransition]]:
    """The first initial step of `s` or `t` that the other state cannot mirror
    by one equally labelled step with a `bb`-lifted target, by max-flow."""
    for x, y in ((s, t), (t, s)):
        for tr in pts.outgoing(x):
            if not any(
                lift_check(bb.table, tr.target, other.target)
                for other in pts.outgoing(y, tr.label)
            ):
                return x, tr
    return None


def rooted_bisim(pts: PTS) -> PairRelation:
    """The pairs that are rooted branching bisimilar."""
    bb = branching_bisim(pts)
    return PairRelation(
        bb.states, {(s, t) for s in bb.states for t in bb.states if rooted_challenge(pts, bb, s, t) is None}
    )
