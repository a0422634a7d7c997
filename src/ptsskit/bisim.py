"""Branching bisimulations on finite probabilistic transition systems.

Two scheduler-free deciders plus supporting machinery:

* `branching_bisim`: a challenge is an inert tau-step (target inside the
  pair's classes) or is matched by a concrete execution of inert tau-steps
  and an equally labelled step whose target is lifting-related to it.
* `prob_branching_bisim`, the combined variant: a challenge is matched by an
  allowed weak tau-transition (inside the branching-preserving set) and a
  one-step convex combination of equally labelled transitions, in which for
  tau a stopped unit may stay put instead (the (tau) clause of van Glabbeek &
  Weijland 1996, per unit as in Andova, Georgievska & Trcka 2012).  Where the
  challenge's target lies in one block, that is almost-sure reachability by
  inert steps (de Alfaro 1997); else exact-rational linear feasibility, an LP
  over a partition (Turrini & Hermanns 2015) on the steps that reach only the
  challenge's blocks, built only when they reach all of them.  Over point
  masses alone, almost-sure is plain reachability (de Alfaro 1997) and a weak
  combined transition (Segala 1995) stops anywhere it reaches (Turrini &
  Hermanns 2015): a PTS of them has the branching partition, one LP flow row.

Both refine a partition of the states by signatures (Groote & Vaandrager
1990; Blom & Orzan 2003) in one loop (`_partition`) over an integer index of
the PTS, built once per PTS and kept on it (`_Index`): states numbered in
text order, each state's transitions, and each step's weights scaled to
integers by one common denominator.
A non-inert step is a move keyed as (label, block) when its target lies in
one block, else as (label, block masses), exact integer sums; a state's moves
are kept until it or a target changes block, and a `StateRelation` reads the
partition as computed.  `_flow_rows` writes every LP's flow rows.  The
scheduler-based definitions, the pair-deleting fixpoint, the weak combined
transition LP over the whole system and max-flow lifting live in the tests,
as oracles.

`decide(kind, pts)` is the query entry point: it computes the relation of a
kind once and answers relatedness, classes and a distinguishing witness, found
on state numbers both ways: rooted by one loop over no relation, so that no
initial step is inert and each needs one equally labelled step with the same
branching block masses (a rooted verdict is that there is no witness); the
others by one per-pair loop (`_first_unmatched`) against the partition's
block numbers widened by exactly the queried pair s, t, where lifting has a
closed form on block masses (`_lifts`).  By one lazy walk of t's states
(`_reach`), the branching match stops at the first step whose target lifts,
with no LP; the pbranching match asks `_block_match` with the pair, over the
states t reaches by preserving tau-steps: a row per block with mass, rows for
the masses at s and t, and transfer columns between their blocks.
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
    """An equivalence on the states of a PTS, as the partition that decides
    it: `_block[x]` numbers the x-th state's block and `_members[b]` lists
    block b's state numbers in order.  A state outside the PTS has no partner."""

    def __init__(self, ix: _Index, block: list[int], members: list[list[int]]):
        self.states, self._num, self._block, self._members = ix.states, ix.num, block, members

    def related(self, s: Term, t: Term) -> bool:
        x, y = self._num.get(s), self._num.get(t)
        return x is not None and y is not None and self._block[x] == self._block[y]

    def partners(self, s: Term) -> frozenset[Term]:
        """The states related to `s`, itself among them, built on each call."""
        x = self._num.get(s)
        return frozenset() if x is None else frozenset([self.states[y] for y in self._members[self._block[x]]])

    def classes(self) -> tuple[tuple[Term, ...], ...]:
        # each block at its first member, so in the order of `states`
        states, members = self.states, self._members
        return tuple(tuple([states[y] for y in ms]) for x, b in enumerate(self._block) if (ms := members[b])[0] == x)


def lift_check(partners: Mapping[Term, set], d1: Distribution, d2: Distribution) -> bool:
    """Does a weight function exist with marginals d1/d2 supported on pairs
    related by `partners`, each state's set of partners?  One exact LP in
    integers: a row per entry of d2 and of d1, a column per related pair.
    No decision asks it, as the per-pair checks lift against a partition by
    block masses; it is the public lifting of an arbitrary relation (criterion
    8b), which the tests check against max-flow and the oracles lift by."""
    scale = _lcm({p.denominator for d in (d1, d2) for _, p in d.items()})
    w1, w2 = ([p.numerator * (scale // p.denominator) for _, p in d.items()] for d in (d1, d2))
    # a column per related pair of d1's k-th and d2's i-th entry, in the rows of d2's entries, then d1's
    cols = [(k, i) for k, t in enumerate(d1.support) for i, u in enumerate(d2.support) if u in partners.get(t, ())]
    rows = [{j: 1 for j, col in enumerate(cols) if col[side] == r}
            for side, w in ((1, w2), (0, w1)) for r in range(len(w))]
    return lp.feasible(rows, w2 + w1)


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


def _partition(ix: _Index, signing: Optional[Callable[..., list]] = None) -> StateRelation:
    """The coarsest partition in which no block splits by its members'
    signatures, as a relation.  A member signs with its moves over its inert
    reach, or by `signing(ix, block, members, moves, inert, reach)`: each
    state's block, the block's members and each state's moves, inert steps
    and inert reach (itself first; None without inert steps)."""
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
    return StateRelation(ix, block, members)


def _masses(block: Sequence[int], targets: Sequence[int], weights: Sequence[int]) -> frozenset:
    """The block masses of a distribution: each block with its summed weight."""
    acc: dict[int, int] = {}
    for u, w in zip(targets, weights):
        b = block[u]
        acc[b] = acc[b] + w if b in acc else w
    return frozenset(acc.items())


# ---------------------------------------------------------------------------
# The per-pair checks, against a partition widened by the queried pair: witnesses

# A per-pair check: the first challenge of state `s` that state `t` fails to match, or None.
PairCheck = Callable[[int, int], Optional[PtsTransition]]


def _reach(ix: _Index, t: int, inert: Callable[[Step], bool]) -> Iterator[tuple[int, list[Step]]]:
    """The states `t` reaches by the steps that are `inert`, breadth first
    from `t`, each with those of its steps; a state is yielded before its
    steps are followed, so a caller that stops walks no further."""
    seen, queue = {t}, [t]
    for u in queue:  # the list grows as it is read
        steps = [step for step in ix.steps[u] if inert(step)]
        yield u, steps
        for step in steps:
            for v in step[2]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)


def _first_unmatched(pts: PTS, block: Sequence[int], matched: Callable[..., bool]) -> PairCheck:
    """The per-pair matching loop against the partition `block` widened by the
    queried pair: each challenge of `s` must be inert, a tau-step into states
    related to both `s` and `t` (s and t alone, unless they share a block), or
    `matched(ix, block, s, step, t)` over the index `ix` of `pts`."""
    ix = _index(pts)

    def check(s: int, t: int) -> Optional[PtsTransition]:
        both = block[s] if block[s] == block[t] else -1  # the block related to both, if any
        for tr, step in zip(ix.out[s], ix.steps[s]):
            inert = step[1] == "tau" and all(u == s or u == t or block[u] == both for u in step[2])
            if not inert and not matched(ix, block, s, step, t):
                return tr
        return None

    return check


def _lifts(block: Sequence[int], s: int, t: int, mu: Step, nu: Step) -> bool:
    """Does the target of step `mu` lift to that of `nu` against the partition
    `block` widened by the pair s, t?  With S and T the blocks of s and t,
    exactly when they agree on every other block and mu(S) - nu(S) lies
    between -min(mu(t), nu(s)) and min(mu(s), nu(t)): the mass the pair moves
    from s to t less the mass it moves from t to s."""
    diff: dict[int, int] = {}
    for sign, (_, _, targets, weights) in ((1, mu), (-1, nu)):
        for u, w in zip(targets, weights):
            diff[block[u]] = diff.get(block[u], 0) + sign * w
    d, m, n = diff.pop(block[s], 0), dict(zip(*mu[2:])), dict(zip(*nu[2:]))
    diff.pop(block[t], 0)
    return not any(diff.values()) and -min(m.get(t, 0), n.get(s, 0)) <= d <= min(m.get(s, 0), n.get(t, 0))


# -- scheduler-free branching bisimulation ----------------------------------

def _branching_check(pts: PTS, block: Sequence[int]) -> PairCheck:
    return _first_unmatched(pts, block, _execution_match)


def branching_bisim(pts: PTS) -> StateRelation:
    """Greatest branching bisimulation, computed without schedulers: a
    state's signature is what it can do after inert steps."""
    return _partition(_index(pts))


def _execution_match(ix: _Index, block: Sequence[int], s: int, step: Step, t: int) -> bool:
    """Search a concrete execution from `t`: inert tau-steps whose supports
    stay related to `s`, ending in a step of the challenge `step`'s label
    whose target it lifts to (`_lifts`)."""
    walk = _reach(ix, t, lambda o: o[1] == "tau" and all(block[v] == block[s] or v == t for v in o[2]))
    return any(_lifts(block, s, t, step, o) for u, _ in walk for o in ix.steps[u] if o[1] == step[1])


# -- probabilistic branching bisimulation ------------------------------------

def _pbranching_check(pts: PTS, block: Sequence[int]) -> PairCheck:
    return _first_unmatched(pts, block, _pair_match)


def _pair_match(ix: _Index, block: Sequence[int], s: int, step: Step, t: int) -> bool:
    """`_block_match` asked with the queried pair over reach(t), the states `t`
    reaches by preserving steps: tau-steps into states related to their source."""
    added = ((s, t), (t, s))
    inert = dict(_reach(ix, t, lambda o: o[1] == "tau" and all(block[v] == block[o[0]] or (o[0], v) in added
                                                               for v in o[2])))
    return _block_match(ix, block, list(inert), inert, step[1], _masses(block, *step[2:]), (s, t, step))


def _pbranching_signatures(
    ix: _Index, block: list[int], members: list[int], moves: list, inert: list, reach: list
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
            t in sure[c] if c in sure else _block_match(ix, block, reach[t] or [t], inert, *c, None))))
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
    """Greatest probabilistic branching bisimulation, the coarsest partition
    whose every member matches its block's moves by an allowed weak
    tau-transition and a one-step convex combination, in which for tau a
    stopped unit may stay put.  Where every step is a point mass, no move
    spreads over blocks and a member almost surely reaches a set by inert steps
    exactly when an inert path does (de Alfaro 1997; Baier & Katoen 2008,
    10.6.1): each signature is the branching one, as is the partition."""
    ix = _index(pts)
    if all(len(step[2]) == 1 for out in ix.steps for step in out):  # point masses: the branching partition
        return _partition(ix)
    return _partition(ix, _pbranching_signatures)


def _block_match(
    ix: _Index, block: Sequence[int], reach: Sequence[int], inert: Union[Sequence, Mapping], label: str, key: Hashable,
    pair: Optional[tuple[int, int, Step]],
) -> bool:
    """A weak phase over the inert steps (`inert[u]` of each u) of the states
    `reach[0]` reaches by them, then a convex choice of `label` steps, or for
    tau of staying put, whose combined target has the block masses `key`, or
    with `pair` = (s, t, challenge) lifts the challenge's, of masses `key`,
    against the partition widened by s and t.  A step reaching a block without
    mass takes none.  No LP is built when some mass (an entry of the challenge)
    has no partner among the states the steps reach, or when `reach[0]` has no
    inert step and one step is left: a member's own move, or one `_lifts`
    answers for.  Inert point masses alone take one flow row (`_weak_phase`)."""
    steps = [step for u in reach for step in ix.steps[u] if step[1] == label]
    scale, alone = ix.scale, not inert[reach[0]]  # alone: no inert step to take
    if label == "tau":  # staying put, as a step
        steps += [(u, label, (u,), (scale,)) for u in reach]
    if not steps or alone and len(steps) == 1:  # no weak phase and one step: the combined target is its
        return bool(steps) and pair is not None and _lifts(block, *pair, steps[0])
    S, T, want = *((block[pair[0]], block[pair[1]]) if pair else (-1, -1)), dict(key)
    if widened := S != T and (S in want or T in want):  # else the pair's blocks take no mass
        want = {S: 0, T: 0, **want}  # both get rows, with or without mass
    steps = [step for step in steps if all(block[u] in want for u in step[2])]
    reached = {block[u] for step in steps for u in step[2]}
    if widened:  # each entry of the challenge needs a partner: a state of its block, or the pair's other
        (s, t, challenge), ends = pair, {u for step in steps for u in step[2]}
        for p in challenge[2]:
            if not (block[p] in reached or p == s and t in ends or p == t and s in ends):
                return False
    elif len(reached) < len(want):
        return False
    if alone and len(steps) == 1:  # a signing member's own move, or a target `_lifts` answers for
        return pair is not None and _lifts(block, *pair, steps[0])
    # the weak phase's flow rows, then a row per block with mass, for the combined target
    at, taus, flows = _weak_phase(reach, [step for u in reach for step in inert[u]])
    lift = {b: flows + i for i, b in enumerate(want)}
    into = {u: lift[block[u]] for step in steps for u in step[2]}
    rows: list[dict[int, int]] = [{} for _ in range(flows + len(lift))]
    rhs = [scale] + [0] * (flows - 1) + [-m for m in want.values()]  # all mass starts at reach[0]
    col = 0
    if widened:  # rows for the target's masses at s and at t, each kept (columns 0, 3) or moved to
        # the other's block (1, 4), and the moves bounded by the challenge's at t and at s (slacks 2, 5)
        mass, into[s], into[t], col = dict(zip(*challenge[2:])), len(rows), len(rows) + 1, 6
        rows += [{0: 1, 1: 1}, {3: 1, 4: 1}, {4: 1, 5: 1}, {1: 1, 2: 1}]
        rows[lift[S]][0] = rows[lift[S]][4] = rows[lift[T]][3] = rows[lift[T]][1] = -1
        rhs += [0, 0, mass.get(s, 0), mass.get(t, 0)]
    col = _flow_rows(rows, at, taus, col, scale)
    _flow_rows(rows, at, steps, col, scale, into)
    return lp.feasible(rows, rhs)


def _weak_phase(reach: Sequence[int], taus: list[Step]) -> tuple[dict[int, int], list[Step], int]:
    """A weak phase from `reach[0]` by `taus` over `reach`: each state's flow
    row, the steps that take a column and the row count."""
    if all(len(step[2]) == 1 for step in taus):
        return dict.fromkeys(reach, 0), [], 1
    return {u: i for i, u in enumerate(reach)}, taus, len(reach)


# -- rooted branching bisimulation -------------------------------------------

def _rooted_check(pts: PTS, bb: StateRelation) -> PairCheck:
    """The per-pair check over no relation, so that no step is inert: a
    challenge is matched by one equally labelled step whose target has the
    same masses on the blocks of `bb`, the challenge's computed once."""
    ix, masses = _index(pts), lambda step: _masses(bb._block, *step[2:])
    return lambda s, t: next((tr for tr, step in zip(ix.out[s], ix.steps[s]) if masses(step) not in (
        masses(o) for o in ix.steps[t] if o[1] == step[1])), None)


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
    pair is added to that relation: to the partition's block numbers, with no
    table, so that a witness pays only for the states its check walks.
    """
    i, j = map(_index(pts).num.get, (s, t))
    if i is None or j is None:
        raise ValueError("both states must belong to the PTS")
    if kind == "rooted":
        unmatched = _rooted_check(pts, rel)
    elif rel.related(s, t):
        return None
    else:
        unmatched = (_branching_check if kind == "branching" else _pbranching_check)(pts, rel._block)
    for x, y in ((i, j), (j, i)):
        if (tr := unmatched(x, y)) is not None:
            return pts.states[x], tr
    return None
