"""Branching bisimulations on finite probabilistic transition systems.

Two scheduler-free deciders plus supporting machinery:

* `branching_bisim`: a challenge is an inert tau-step (target inside the
  pair's classes) or is matched by a concrete execution of inert tau-steps
  and an equally labelled step whose target is lifting-related to it.
* `prob_branching_bisim`, the combined variant: a challenge is matched by an
  allowed weak tau-transition (inside the branching-preserving set) and a
  one-step convex combination of equally labelled transitions.  Where the
  challenge's target lies in one block, that is almost-sure reachability by
  inert steps (de Alfaro 1997); else exact-rational linear feasibility, an LP
  over a partition (Turrini & Hermanns 2015) on the steps that reach only the
  challenge's blocks, built only when they reach all of them.

Both refine a partition of the states by signatures (Groote & Vaandrager
1990; Blom & Orzan 2003) in one loop (`_partition`) over an integer index of
the PTS, built once per PTS and kept on it (`_Index`): states numbered in
text order, each state's transitions, and each step's weights scaled to
integers by one common denominator.
A non-inert step is a move keyed as (label, block) when its target lies in
one block, else as (label, block masses), exact integer sums; a state's moves
are kept until it or a target changes block.  `_flow_rows` and `_lift_rows`
write every LP's integer rows.  The scheduler-based definitions, the
pair-deleting fixpoint, the weak combined transition LP over the whole system
and max-flow lifting live in the tests, as oracles.

`decide(kind, pts)` is the query entry point: it computes the relation of a
kind once and answers relatedness, classes and a distinguishing witness, which
one per-pair loop for every kind (`_first_unmatched`) finds, run both ways:
rooted against no relation, so that no initial step is inert and each needs
one equally labelled step with the same branching-class masses (a rooted
verdict is that there is no witness); the others against the relation plus the
queried pair, and pbranching, failing that, with the pair keeping only its
common partners, built only then.  The branching match lifts the target alone
in one exact LP (`lift_check`), the pbranching match after a weak phase over
reach(t), the states t reaches by preserving tau-steps (`_combined_match`).
Both reach t's states by one lazy walk (`_reach`): the branching match stops
at the first lifted step, and the pbranching match picks the preserving steps
as it walks.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from . import lp
from .distributions import Distribution
from .engine import PTS, PtsTransition
from .terms import Term

# the relations `decide` answers for: branching, probabilistic branching and
# rooted branching bisimulation
KINDS = ("branching", "pbranching", "rooted")


class StateRelation:
    """A symmetric relation on the states of a PTS, as each state's set of
    partners.  The deciders' relations are equivalences, each class sharing
    one set, except for a pbranching relation on a system with no greatest
    bisimulation equivalence, whose classes may overlap."""

    def __init__(self, states: Sequence[Term], partners: Mapping[Term, frozenset[Term]]):
        self.states = tuple(states)
        self._by_left = dict(partners)

    def related(self, s: Term, t: Term) -> bool:
        return t in self.partners(s)

    def partners(self, s: Term) -> frozenset[Term]:
        return self._by_left.get(s, frozenset())

    def classes(self) -> tuple[tuple[Term, ...], ...]:
        # each unseen state with its partners, in the order of `states`
        index = {s: i for i, s in enumerate(self.states)}
        seen: set[Term] = set()
        out: list[tuple[Term, ...]] = []
        for s in self.states:
            if s not in seen:
                block = sorted(self.partners(s) | {s}, key=index.__getitem__)
                seen.update(block)
                out.append(tuple(block))
        return tuple(out)


def lift_check(partners: Mapping[Term, set], d1: Distribution, d2: Distribution) -> bool:
    """Does a weight function exist with marginals d1/d2 supported on pairs
    related by `partners`, each state's set of partners?  One exact LP: a row
    per entry of d2, into which `_lift_rows` lifts d1's entries, in integers."""
    scale = _lcm({p.denominator for d in (d1, d2) for _, p in d.items()})
    w1, rhs = ([p.numerator * (scale // p.denominator) for _, p in d.items()] for d in (d1, d2))
    rows: list[dict[int, int]] = [{} for _ in rhs]
    _lift_rows(rows, rhs, [[i for i, u in enumerate(d2.support) if u in partners.get(t, ())] for t in d1.support], w1, 0)
    return lp.feasible(rows, rhs)


def _lcm(numbers: Iterable[int]) -> int:
    """The least common multiple of `numbers` (a decision module imports no `math`)."""
    return functools.reduce(lambda out, n: out * Fraction(out, n).denominator, numbers, 1)


# ---------------------------------------------------------------------------
# Partition refinement shared by the deciders

# an index step (source, label, targets, integer weights); a state's row in `_flow_rows`
Step = tuple[int, str, tuple[int, ...], tuple[int, ...]]
Rows = Union[Sequence[int], Mapping[int, int]]


def _flow_rows(
    rows: list[dict[int, int]], at: Rows, steps: Sequence[Step], col: int, scale: int, into: Optional[Rows] = None
) -> int:
    """Flow conservation in integer rows, `scale` times a state's outflow less
    its inflow: the j-th step's occupation, column `col + j`, counts `scale`
    in the row `at[source]` and -w in the row `into[u]` (`at[u]` by default)
    of each state u it reaches with weight w.  Returns the next free column."""
    into = at if into is None else into
    for j, (source, _, targets, weights) in enumerate(steps, col):
        rows[at[source]][j] = scale
        for u, w in zip(targets, weights):
            row = rows[into[u]]
            c = row.get(j, 0) - w
            if c:
                row[j] = c
            else:  # a point-mass self-loop neither leaves nor enters
                del row[j]
    return col + len(steps)


def _lift_rows(
    rows: list[dict[int, int]], rhs: list[int], lifts: Sequence[Sequence[int]], weights: Sequence[int], col: int
) -> None:
    """Transport rows: for the k-th entry, of weight `weights[k]`, a new row
    whose columns, from `col` on, one per row i of `lifts[k]`, sum to that
    weight; each column counts 1 in its row i too."""
    for related, w in zip(lifts, weights):
        row = {}
        for i in related:
            row[col] = rows[i][col] = 1
            col += 1
        rows.append(row)
        rhs.append(w)


class _Index:
    """A PTS over dense state numbers, the order of `pts.states`: `out[x]`
    lists x's transitions in text order, and `steps[x][j]` is the step of
    `out[x][j]`, its probabilities times `scale`, the least common
    denominator of every probability in the PTS."""

    def __init__(self, pts: PTS):
        self.states, self.num = pts.states, {s: i for i, s in enumerate(pts.states)}
        self.scale = _lcm({p.denominator for tr in pts.transitions for _, p in tr.target.items()})
        self.out: list[list[PtsTransition]] = [[] for _ in pts.states]
        self.steps: list[list[Step]] = [[] for _ in pts.states]
        num, scale, point = self.num, self.scale, (self.scale,)  # point: the weights of a point mass, built once
        for tr in pts.transitions:
            x, items = num[tr.source], tr.target.items()
            self.out[x].append(tr)
            self.steps[x].append((x, tr.label, (num[items[0][0]],), point) if len(items) == 1 else (
                x, tr.label, tuple([num[u] for u, _ in items]), tuple([p.numerator * (scale // p.denominator) for _, p in items])))


def _index(pts: PTS) -> _Index:
    """The index of `pts`, built once and kept on it."""
    if pts._index is None:
        object.__setattr__(pts, "_index", _Index(pts))
    return pts._index


def _partition(ix: _Index, signing: Optional[Callable[..., list]] = None) -> tuple[StateRelation, tuple[list, ...]]:
    """The coarsest partition in which no block splits by its members'
    signatures: as a relation, and as each state's block, each block's
    members and each state's moves, inert steps and inert reach (itself
    first; None without inert steps).  A member signs with its moves over
    its inert reach, or by `signing(ix, block, members, moves, inert, reach)`."""
    n, steps = len(ix.steps), ix.steps
    block, members = [0] * n, [list(range(n))]
    sources: list[list[int]] = [[] for _ in range(n)]
    for x, out in enumerate(steps):
        for step in out:
            for u in step[2]:
                sources[u].append(x)
    moves, inert, reach = [None] * n, [None] * n, [None] * n
    stale, dirty = set(range(n)), [0]
    while dirty:
        for b in dirty:
            ms = members[b]
            for x in ms:
                if x in stale:
                    out, stays = [], []
                    for step in steps[x]:
                        targets = step[2]
                        key = block[targets[0]]
                        for u in targets:
                            if block[u] != key:  # the target spreads over blocks: key it by their masses
                                key = _masses(block, targets, step[3])
                                break
                        if key == b and step[1] == "tau":
                            stays.append(step)
                        else:
                            out.append((step[1], key))
                    moves[x], inert[x] = frozenset(out), stays
            stale.difference_update(ms)
            sigs = []
            for x in ms:
                if inert[x]:
                    r, seen, sig = [x], {x}, set(moves[x])
                    for u in r:
                        for step in inert[u]:
                            for v in step[2]:
                                if v not in seen:
                                    seen.add(v)
                                    r.append(v)
                                    sig |= moves[v]
                    reach[x] = r
                    sigs.append(frozenset(sig))
                else:
                    reach[x] = None
                    sigs.append(moves[x])
            parts: dict[Hashable, list[int]] = {}
            for x, sig in zip(ms, sigs if signing is None else signing(ix, block, ms, moves, inert, reach)):
                parts.setdefault(sig, []).append(x)
            if len(parts) > 1:
                members[b], *rest = parts.values()
                for part in rest:
                    for x in part:
                        block[x] = len(members)
                        stale.add(x)
                        stale.update(sources[x])
                    members.append(part)
        dirty = sorted({block[x] for x in stale})
    states = ix.states
    sets = [frozenset(states[x] for x in ms) for ms in members]
    return StateRelation(states, {s: sets[block[x]] for x, s in enumerate(states)}), (block, members, moves, inert, reach)


def _masses(block: Mapping[Hashable, Hashable], targets: Sequence[Hashable], weights: Sequence) -> frozenset:
    """The block masses of a distribution: each block with its summed weight."""
    acc: dict[Hashable, int] = {}
    for u, w in zip(targets, weights):
        b = block[u]
        acc[b] = acc[b] + w if b in acc else w
    return frozenset(acc.items())


# ---------------------------------------------------------------------------
# The per-pair checks, against any relation: witnesses and the last pbranching sweeps

# A per-pair check: the first challenge of `s` that `t` fails to match, or None.
PairCheck = Callable[[Term, Term], Optional[PtsTransition]]


def _reach(ix: _Index, t: int, inert: Callable[[PtsTransition], bool]) -> Iterator[tuple[int, list[Step]]]:
    """The states `t` reaches by the steps whose transitions are `inert`,
    breadth first from `t`, each with those of its steps; a state is yielded
    before its steps are followed, so a caller that stops walks no further."""
    seen, queue = {t}, [t]
    for u in queue:  # the list grows as it is read
        steps = [step for tr, step in zip(ix.out[u], ix.steps[u]) if inert(tr)]
        yield u, steps
        for step in steps:
            for v in step[2]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)


def _first_unmatched(ix: _Index, rel: Mapping[Term, set], matched: Callable[..., bool]) -> PairCheck:
    """The per-pair matching loop: each non-inert challenge of `s` must be `matched(s, tr, step, t)`."""

    def check(s: Term, t: Term) -> Optional[PtsTransition]:
        members = rel.get(s, set()) & rel.get(t, set())  # an inert challenge stays among them
        for tr, step in zip(ix.out[ix.num[s]], ix.steps[ix.num[s]]):
            if not (tr.label == "tau" and members.issuperset(tr.target.support)) and not matched(s, tr, step, t):
                return tr
        return None

    return check


# -- scheduler-free branching bisimulation ----------------------------------

def _branching_check(pts: PTS, rel: Mapping[Term, set]) -> PairCheck:
    ix = _index(pts)
    return _first_unmatched(ix, rel, lambda s, tr, step, t: _execution_match(ix, rel, s, tr, t))


def branching_bisim(pts: PTS) -> StateRelation:
    """Greatest branching bisimulation, computed without schedulers: a
    state's signature is what it can do after inert steps."""
    return _partition(_index(pts))[0]


def _execution_match(ix: _Index, rel: Mapping[Term, set], s: Term, challenge: PtsTransition, t: Term) -> bool:
    """Search a concrete execution from `t`: inert tau-steps whose supports
    stay related to `s`, ending in a `challenge.label` step with lifted-related
    target."""
    related_to_s = rel.get(s, set())
    walk = _reach(ix, ix.num[t], lambda tr: tr.label == "tau" and related_to_s.issuperset(tr.target.support))
    return any(lift_check(rel, challenge.target, tr.target)
               for u, _ in walk for tr in ix.out[u] if tr.label == challenge.label)


# -- probabilistic branching bisimulation ------------------------------------

def _pbranching_check(pts: PTS, rel: Mapping[Term, set]) -> PairCheck:
    ix = _index(pts)
    return _first_unmatched(ix, rel, lambda s, tr, step, t: _combined_match(ix, rel, *step[1:], ix.num[t]))


def _pbranching_signatures(
    ix: _Index, block: list[int], members: list[int], moves: list, inert: list, reach: list, stay: bool = True
) -> list[Hashable]:
    """The moves of its block that each member matches: its own; a one-block
    move (label, B) when by inert steps it almost surely reaches a member with
    it, as the move's LP asks (de Alfaro, PhD thesis, Stanford 1997; Baier &
    Katoen 2008, 10.6.1; staying put never helps); others by `_block_match`."""
    candidates = frozenset().union(*(moves[x] for x in members))
    graph = [step for x in members for step in inert[x]]  # the block's inert steps
    sure = {c: _almost_sure(graph, [x for x in members if c in moves[x]]) if graph else ()
            for c in candidates if type(c[1]) is int}
    if len(sure) < len(candidates):  # a move into several blocks asks LPs, so the moves go in one order
        candidates = sorted(candidates, key=lambda c: (c[0], c[1], ()) if type(c[1]) is int else (c[0], -1, sorted(c[1])))
    sigs = []
    for t in members:
        sigs.append(frozenset(c for c in candidates if c in moves[t] or (
            t in sure[c] if c in sure else _block_match(ix, block, reach[t] or [t], inert, *c, stay))))
    return sigs


def _almost_sure(steps: Sequence[Step], goal: list[int]) -> set[int]:
    """The states that reach `goal` by `steps` with probability 1: search back
    over predecessor lists, drop the steps that leave what it found, repeat."""
    while True:
        preds: dict[int, list[int]] = {}
        for x, _, targets, _ in steps:
            for u in targets:
                preds.setdefault(u, []).append(x)
        found, work = set(goal), list(goal)
        for v in work:
            for x in preds.get(v, ()):
                if x not in found:
                    found.add(x)
                    work.append(x)
        kept = [step for step in steps if found.issuperset(step[2])]
        if len(kept) == len(steps):
            return found
        steps = kept


def prob_branching_bisim(pts: PTS) -> StateRelation:
    """Greatest probabilistic branching bisimulation: combined matching via an
    allowed weak tau-step followed by a one-step convex combination.

    One state of a related pair may mix an inert tau-step into a combination
    where the other cannot, so the signatures let a unit stay put instead.
    Unless each member then matches every move of its block without staying
    put, sweeps keep the pairs that pass the per-pair check both ways against
    the relation in which the pair keeps only its common partners.  Every
    bisimulation equivalence relating the pair lies inside that relation and
    the check is monotone, so no pair of one is deleted.  Where no greatest
    bisimulation equivalence exists, the pairs kept are those that some
    bisimulation partition relates (checked by brute force on small systems),
    and the classes may overlap."""
    ix = _index(pts)
    rel, (block, members, moves, *kept) = _partition(ix, _pbranching_signatures)
    # a block with one-block moves only signs alike without staying put: no LP reads `stay`
    if all(len(set(_pbranching_signatures(ix, block, ms, moves, *kept, False))) == 1 for ms in members
           if any(type(key) is not int for x in ms for _, key in moves[x])):
        return rel
    table = {u: set(rel.partners(u)) for u in rel.states}
    while True:
        shared = _pbranching_check(pts, table)
        failed = []
        for s in rel.states:
            for t in sorted(table[s] - {s}, key=ix.num.__getitem__):  # in state order, as the LPs are asked
                check = shared if table[s] == table[t] else _pbranching_check(pts, _common(table, s, t))
                if check(s, t) is not None:
                    failed.append((s, t))
        if not failed:
            return StateRelation(rel.states, {s: frozenset(table[s]) for s in rel.states})
        for s, t in failed:
            table[s].discard(t)
            table[t].discard(s)


def _common(table: Mapping[Term, set], s: Term, t: Term) -> dict[Term, set]:
    """`table` in which `s` and `t` keep only their common partners."""
    common = table[s] & table[t]
    out = {u: partners if u in common else partners - {s, t} for u, partners in table.items()}
    out[s] = out[t] = common
    return out


def _block_match(
    ix: _Index, block: list[int], reach: list[int], inert: list, label: str, key: Hashable, stay: bool,
) -> bool:
    """`_combined_match` against a partition: a weak phase over the inert
    steps (`inert[u]` of each u) of the states `reach[0]` reaches by them,
    then a convex choice of `label` steps, or for tau and `stay` of staying
    put, whose combined target has the block masses `key` of a move into
    several blocks.  A step reaching a block without mass takes none, and no
    LP is built when a block with mass is reached by no other step, nor by
    staying put, or when `reach[0]` has just one step, its own move."""
    steps = [step for u in reach for step in ix.steps[u] if step[1] == label]
    stay, alone = stay and label == "tau", not inert[reach[0]]  # alone: no inert step to take
    if not steps or (alone and not stay and len(steps) == 1):
        return False
    scale, want = ix.scale, dict(key)
    steps += [(u, label, (u,), (scale,)) for u in reach] if stay else []  # staying put, as a step
    steps = [step for step in steps if all(block[u] in want for u in step[2])]
    if len({block[u] for step in steps for u in step[2]}) < len(want) or (alone and len(steps) == 1):
        return False
    # a flow row per reached state, then a row per block with mass, for the combined target
    at, lift = {u: i for i, u in enumerate(reach)}, {b: len(reach) + i for i, b in enumerate(want)}
    rows: list[dict[int, int]] = [{} for _ in range(len(reach) + len(lift))]
    col = _flow_rows(rows, at, [step for u in reach for step in inert[u]], 0, scale)
    _flow_rows(rows, at, steps, col, scale, {u: lift[block[u]] for step in steps for u in step[2]})
    rhs = [scale] + [0] * (len(reach) - 1) + [-m for m in want.values()]  # all mass starts at reach[0]
    return lp.feasible(rows, rhs)


def _combined_match(
    ix: _Index, rel: Mapping[Term, set], label: str, targets: tuple, weights: tuple, t: int
) -> bool:
    """One linear feasibility question: does some weak tau-step of `t` inside
    the preserving set (tau-steps with support among the source's partners)
    reach an intermediate distribution whose one-step `label`-combination is
    lifting-related to the challenge target?  No other state receives mass, so
    the LP spans reach(t), the states `t` reaches by preserving steps: a flow
    row each, their `label` steps, and a lift row for each state they reach."""
    walk = _reach(ix, t, lambda tr: tr.label == "tau" and rel.get(tr.source, set()).issuperset(tr.target.support))
    reach, preserving = zip(*walk)
    at = {u: i for i, u in enumerate(reach)}
    steps = [step for u in reach for step in ix.steps[u] if step[1] == label]
    states, scale = ix.states, ix.scale
    lift = {v: i for i, v in enumerate(dict.fromkeys(v for step in steps for v in step[2]), len(reach))}
    # each challenge entry's related lift rows; an entry with none is not lifted
    partners = [[i for v, i in lift.items() if states[v] in rel.get(states[p], ())] for p in targets]
    if not all(partners):
        return False
    # a weak tau phase inside the preserving set, then one label-step per stopped unit; the lift
    # rows lift the challenge target against the combined target, a column per related pair
    rows: list[dict[int, int]] = [{} for _ in range(len(reach) + len(lift))]
    col = _flow_rows(rows, at, [step for steps in preserving for step in steps], 0, scale)
    col = _flow_rows(rows, at, steps, col, scale, lift)
    rhs = [scale] + [0] * (len(rows) - 1)  # all mass starts at t
    _lift_rows(rows, rhs, partners, weights, col)
    return lp.feasible(rows, rhs)


# -- rooted branching bisimulation -------------------------------------------

def _rooted_check(pts: PTS, bb: StateRelation) -> PairCheck:
    """The per-pair loop over no relation, so that no step is inert: a
    challenge is matched by one equally labelled step whose target has the
    same `bb`-class masses, the challenge's computed once."""
    ix, masses = _index(pts), lambda d: _masses(bb._by_left, *zip(*d.items()))
    return _first_unmatched(ix, {}, lambda s, tr, step, t: masses(tr.target) in (
        masses(o.target) for o in ix.out[ix.num[t]] if o.label == tr.label))


def rooted_branching_bisim(pts: PTS, s: Term, t: Term, bb: StateRelation) -> bool:
    """Initial transitions must match strictly (equal labels, single steps)
    with targets lifted by `bb`, the branching bisimulation of `pts`."""
    return distinguishing_challenge(pts, "rooted", s, t, bb) is None


# -- the query entry point ----------------------------------------------------

class Decision(NamedTuple):
    """The greatest relation of one kind on a PTS and the queries on it.

    For "rooted" the relation is branching bisimulation, against which the
    initial steps of a queried pair are lifted; it has no classes of its own.
    """

    kind: str
    pts: PTS
    relation: StateRelation

    def related(self, s: Term, t: Term) -> bool:
        if self.kind == "rooted":
            return rooted_branching_bisim(self.pts, s, t, self.relation)
        return self.relation.related(s, t)

    def classes(self) -> Optional[tuple[tuple[Term, ...], ...]]:
        return None if self.kind == "rooted" else self.relation.classes()

    def witness(self, s: Term, t: Term) -> Optional[tuple[Term, PtsTransition]]:
        return distinguishing_challenge(self.pts, self.kind, s, t, self.relation)


def decide(kind: str, pts: PTS) -> Decision:
    """Compute the greatest `kind` relation on `pts` once, for any number of
    queries.  `kind` is one of KINDS."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    relation = prob_branching_bisim(pts) if kind == "pbranching" else branching_bisim(pts)
    return Decision(kind, pts, relation)


def distinguishing_challenge(
    pts: PTS, kind: str, s: Term, t: Term, rel: StateRelation
) -> Optional[tuple[Term, PtsTransition]]:
    """A transition certifying s and t are not `kind`-related, if they are not.

    `rel` is the relation `decide(kind, pts)` computes.  The certificate is a
    challenge that fails the kind's own per-pair check even when the queried
    pair is added to that relation; for pbranching, where the sweeps deleted
    the pair, failing that, when s and t keep only their common partners.
    """
    if not {s, t} <= _index(pts).num.keys():
        raise ValueError("both states must belong to the PTS")
    if kind == "rooted":
        check, relations = _rooted_check, [lambda: rel]
    elif rel.related(s, t):
        return None
    else:
        table = {u: rel.partners(u) for u in pts.states}  # shared: the checks only read it
        table[s], table[t] = rel.partners(s) | {t}, rel.partners(t) | {s}
        check, relations = (_branching_check, [lambda: table]) if kind == "branching" else (
            _pbranching_check, [lambda: table, lambda: _common(table, s, t)])  # each built when it is read
    for against in relations:
        unmatched = check(pts, against())
        for x, y in ((s, t), (t, s)):
            if (tr := unmatched(x, y)) is not None:
                return x, tr
    return None
