"""The pair-deleting fixpoint that `ptsskit.bisim` replaced by partition
refinement, kept as a test oracle.

`_refine` starts from every pair of states and, each sweep, keeps the pairs
that pass the kind's per-pair check in both directions against the relation
of the sweep before; it stops when a sweep deletes nothing.  The branching
check (`branching_check`) searches a concrete execution (`execution_match`)
and lifts by exact max-flow (`lift_by_max_flow` of `tests/reference_lp.py`,
not the library's `lift_check`); the pbranching check (`pbranching_check`)
solves one LP over the whole system, `combined_match`, with a `w` variable
per related pair; rooted pairs lift by max-flow as well, or by class masses
(`by_class_masses`), in the rooted loop of their own (`rooted_challenge`).
Both checks run their own per-pair loop (`first_unmatched`): of the
library's per-pair layer they share only the integer index (`_index`) and
the flow-row builder (`_flow_rows`).  They read the relation as a predicate
on state numbers, which `numbered(ix, related)` makes of a relation on
states, and ask a pair by its state numbers; `widened(make_check)` builds
one, as the library builds its checks, from a partition's block numbers
widened by each queried pair.
`PairRelation` holds a result as a pair set, whose `.pairs` the tests compare
with `pairs(rel)` of a library `StateRelation`; `is_equivalence(rel)` reads
either kind of relation, and `partner_map(rel)` gives either, or a pair set,
as the partner map lifting takes.  `outgoing(pts, s, label)` reads a state's
transitions off `pts.transitions`, and `index_step(ix, tr)` scales a
transition to a step of the library's integer index.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional, Sequence

from ptsskit import lp
from ptsskit.bisim import PairCheck, Step, _flow_rows, _index, _Index
from ptsskit.distributions import Distribution
from ptsskit.engine import PTS, PtsTransition
from ptsskit.terms import Term, render_term
from tests.reference_lp import lift_by_max_flow

# A relation on state numbers, as the oracle's checks read it.
_Related = Callable[[int, int], bool]


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


def outgoing(pts: PTS, state: Term, label: Optional[str] = None) -> list[PtsTransition]:
    """The transitions of `state` in `pts`, of `label` if given, in text order."""
    return [tr for tr in pts.transitions if tr.source == state and label in (None, tr.label)]


def index_step(ix: _Index, tr: PtsTransition) -> Step:
    """`tr` as a step of the index `ix`: state numbers and its weights times `ix.scale`."""
    num, items = ix.num, tr.target.items()
    weights = tuple([p.numerator * (ix.scale // p.denominator) for _, p in items])
    return num[tr.source], tr.label, tuple([num[u] for u, _ in items]), weights


def numbered(ix: _Index, related: Callable[[Term, Term], bool]) -> _Related:
    """`related`, a relation on the states of `ix`, on their numbers."""
    states = ix.states
    return lambda x, y: related(states[x], states[y])


def pairs(rel) -> frozenset[tuple[Term, Term]]:
    """Every related pair of a `StateRelation` or `PairRelation`, n² of them for one block."""
    return frozenset((s, t) for s in rel.states for t in rel.partners(s))


def partner_map(rel) -> dict[Term, set[Term]]:
    """Each state's set of partners, the form lifting takes, of a set of
    pairs or of a `StateRelation` or `PairRelation`."""
    if hasattr(rel, "partners"):
        return {s: set(rel.partners(s)) for s in rel.states}
    return PairRelation((), rel).table


def is_equivalence(rel) -> bool:
    """Whether each state is among its partners and shares their partner set."""
    return all(
        s in rel.partners(s) and all(rel.partners(t) == rel.partners(s) for t in rel.partners(s))
        for s in rel.states
    )


def _refine(pts: PTS, make_check: Callable[[PTS, _Related], PairCheck]) -> PairRelation:
    states, num = sorted(pts.states, key=render_term), _index(pts).num
    pairs = {(s, t) for s in states for t in states}
    while True:
        numbers = {(num[s], num[t]) for s, t in pairs}
        check = make_check(pts, lambda x, y: (x, y) in numbers)
        matched = {
            pair
            for pair in sorted(pairs, key=lambda p: (render_term(p[0]), render_term(p[1])))
            if check(num[pair[0]], num[pair[1]]) is None
        }
        new_pairs = {(s, t) for (s, t) in matched if (t, s) in matched}
        if new_pairs == pairs:
            return PairRelation(states, pairs)
        pairs = new_pairs


def first_unmatched(ix: _Index, related: _Related, matched: Callable[..., bool]) -> PairCheck:
    """The per-pair matching loop: the first challenge of `s`, in text order,
    that is neither an inert tau-step (support among the partners common to
    `s` and `t`) nor `matched(s, tr, step, t)`; None when there is none."""

    def check(s: int, t: int) -> Optional[PtsTransition]:
        for tr, step in zip(ix.out[s], ix.steps[s]):
            common = all(related(s, u) and related(t, u) for u in step[2])
            if not (tr.label == "tau" and common) and not matched(s, tr, step, t):
                return tr
        return None

    return check


def execution_match(
    ix: _Index, related: _Related, s: int, challenge: PtsTransition, t: int,
    lift: Callable[[Distribution, Distribution], bool],
) -> bool:
    """Search a concrete execution from `t`, breadth first: inert tau-steps
    whose supports stay related to `s`, ending in a `challenge.label` step
    whose target `lift` relates to the challenge's.  A state's steps are
    lifted, in text order, before its inert steps are followed."""
    seen, queue = {t}, [t]
    for u in queue:
        out = ix.out[u]
        for tr in out:
            if tr.label == challenge.label and lift(challenge.target, tr.target):
                return True
        for tr, step in zip(out, ix.steps[u]):
            if tr.label == "tau" and all(related(s, v) for v in step[2]):
                for v in step[2]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
    return False


def branching_check(pts: PTS, related: _Related) -> PairCheck:
    """The branching per-pair check: every non-inert challenge of `s` is
    matched from `t` by a concrete execution, lifting by max-flow against
    each state's partners."""
    ix = _index(pts)
    n, states = len(ix.states), ix.states
    table = {states[x]: {states[y] for y in range(n) if related(x, y)} for x in range(n)}
    lift = functools.cache(functools.partial(lift_by_max_flow, table))
    return first_unmatched(ix, related, lambda s, tr, step, t: execution_match(ix, related, s, tr, t, lift))


def widened(make_check: Callable[[PTS, _Related], PairCheck]) -> Callable[[PTS, Sequence[int]], PairCheck]:
    """An oracle check, `make_check(pts, related)`, built as the library's
    per-pair checks are, from a partition's block numbers: each pair is
    checked against the partition widened by exactly that pair."""

    def build(pts: PTS, block: Sequence[int]) -> PairCheck:
        def check(s: int, t: int) -> Optional[PtsTransition]:
            pair = ((s, t), (t, s))
            return make_check(pts, lambda x, y: block[x] == block[y] or (x, y) in pair)(s, t)

        return check

    return build


def branching_bisim(pts: PTS) -> PairRelation:
    return _refine(pts, branching_check)


def pbranching_check(pts: PTS, related: _Related) -> PairCheck:
    """The pbranching per-pair check: every non-inert challenge of `s` is
    matched from `t` by `combined_match`, over the preserving tau-steps."""
    ix = _index(pts)
    preserving = [step for step in (index_step(ix, tr) for tr in pts.transitions)
                  if step[1] == "tau" and all(related(step[0], v) for v in step[2])]
    match = functools.cache(lambda challenge, t: combined_match(ix, related, preserving, *challenge, t))
    return first_unmatched(ix, related, lambda s, tr, step, t: match(index_step(ix, tr)[1:], t))


def combined_match(
    ix: _Index, related: _Related, preserving: Sequence[Step], label: str, targets: tuple, weights: tuple, t: int
) -> bool:
    """One linear feasibility question over the whole system: does some weak
    tau-step of `t` inside the preserving set reach an intermediate
    distribution whose one-step `label`-combination is lifting-related to the
    challenge target, where for tau a stopped unit may stay put instead?  A
    flow row and a lift row for every state, and a column for every `label`
    step and, for tau, for staying put at every state."""
    n, scale = len(ix.steps), ix.scale
    steps = [step for out in ix.steps for step in out if step[1] == label]
    steps += [(u, label, (u,), (scale,)) for u in range(n)] if label == "tau" else []
    if not steps:
        return False
    # a weak tau phase inside the preserving set, then one label-step per stopped unit; the
    # second n rows lift the challenge target against the combined target, a column per related pair
    rows: list[dict[int, int]] = [{} for _ in range(2 * n)]
    col = _flow_rows(rows, range(n), preserving, 0, scale)
    col = _flow_rows(rows, range(n), steps, col, scale, range(n, 2 * n))
    rhs = [scale if u == t else 0 for u in range(n)] + [0] * n
    for p, w in zip(targets, weights):
        row = {}
        for v in range(n):
            if related(p, v):
                row[col] = rows[n + v][col] = scale
                col += 1
        rows.append(row)
        rhs.append(w)
    return lp.feasible(rows, rhs)


def prob_branching_bisim(pts: PTS) -> PairRelation:
    return _refine(pts, pbranching_check)


def rooted_challenge(
    pts: PTS, s: Term, t: Term, lifted: Callable[[Distribution, Distribution], bool]
) -> Optional[tuple[Term, PtsTransition]]:
    """The first initial step of `s` or `t`, in text order, that the other
    state cannot mirror by one equally labelled step whose target is
    `lifted` to it: the loop by which `ptsskit.bisim` found rooted witnesses
    before they joined its per-pair loop."""
    for x, y in ((s, t), (t, s)):
        for tr in outgoing(pts, x):
            if not any(lifted(tr.target, other.target) for other in outgoing(pts, y, tr.label)):
                return x, tr
    return None


def by_class_masses(bb) -> Callable[[Distribution, Distribution], bool]:
    """Lifting against the equivalence `bb`, a `StateRelation` or
    `PairRelation`, as equal masses on each class."""

    def masses(d: Distribution) -> dict[frozenset, object]:
        acc: dict[frozenset, object] = {}
        for u, p in d.items():
            block = frozenset(bb.partners(u))
            acc[block] = acc.get(block, 0) + p
        return acc

    return lambda d1, d2: masses(d1) == masses(d2)


def rooted_bisim(pts: PTS) -> PairRelation:
    """The pairs that are rooted branching bisimilar, lifting by max-flow."""
    bb = branching_bisim(pts)
    lifted = functools.partial(lift_by_max_flow, bb.table)
    return PairRelation(
        bb.states, {(s, t) for s in bb.states for t in bb.states if rooted_challenge(pts, s, t, lifted) is None}
    )
