"""Branching bisimulations on finite probabilistic transition systems.

Two scheduler-free deciders plus supporting machinery:

* `branching_bisim` — scheduler-free characterization: a challenge either is
  an inert tau-step (target supported inside the pair's classes) or is matched
  by a concrete execution of inert tau-steps followed by an equally labelled
  step whose target is lifting-related to the challenge target.
* `prob_branching_bisim` — the combined variant: matching goes through an
  allowed weak tau-transition (restricted to the branching-preserving set)
  followed by a one-step convex combination of equally labelled transitions;
  decided by exact-rational linear feasibility.

Both refine a partition of the states by signatures (Groote & Vaandrager
1990; Blom & Orzan 2003) over an integer index of the PTS, built once per
call (`_Index`): states numbered in text order, each step's weights scaled
to integers by one common denominator.  Lifting against a partition is
equality of block masses, exact integer sums; a state's moves are kept
across rounds until one of its targets changes block.  A pbranching block
match is an LP over a partition (Turrini & Hermanns 2015) on the steps that
reach only the challenge's blocks, built only when they reach all of them.
Every LP's integer rows are written by `_flow_rows`.
`rooted_branching_bisim` matches the initial steps of a pair strictly
against the branching relation.  The scheduler-based definitions, the
pair-deleting fixpoint and the weak combined transition LP live in the
tests, as oracles (`tests/reference_schedulers.py`, `tests/reference_refine.py`).

`decide(kind, pts)` is the query entry point: it computes the relation of a
kind once and answers relatedness, classes and a distinguishing witness.  The
witness reruns the kind's per-pair check on the relation plus the queried
pair, lifting by exact max-flow for branching (`lift_check`) and through
transport columns in one LP for pbranching (`_combined_match`); a rooted
witness lifts by block masses (`_rooted_challenge`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from . import lp
from .distributions import Distribution
from .engine import PTS, PtsTransition
from .lp import max_flow
from .terms import Term

# the relations `decide` answers for: branching, probabilistic branching and
# rooted branching bisimulation
KINDS = ("branching", "pbranching", "rooted")

RelationLike = Union["StateRelation", Iterable[tuple[Term, Term]], Mapping[Term, set]]


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


def _partners_map(rel: RelationLike) -> Mapping[Term, set]:
    if isinstance(rel, StateRelation):
        return rel._by_left
    if isinstance(rel, Mapping):
        return rel
    table: dict[Term, set] = {}
    for s, t in rel:
        table.setdefault(s, set()).add(t)
    return table


def lift_check(relation: RelationLike, d1: Distribution, d2: Distribution) -> bool:
    """Does a weight function exist with marginals d1/d2 supported on related
    pairs?  Exact max-flow feasibility on the bipartite support graph."""
    if d1.total_mass != 1 or d2.total_mass != 1:
        raise ValueError("lifting is defined on full distributions")
    table = _partners_map(relation)
    left = d1.support
    right = d2.support
    l_index = {t: 1 + i for i, t in enumerate(left)}
    r_index = {t: 1 + len(left) + i for i, t in enumerate(right)}
    sink = 1 + len(left) + len(right)
    edges: list[tuple[int, int, Fraction]] = []
    for t in left:
        edges.append((0, l_index[t], d1.get(t)))
        partners = table.get(t, set())
        for u in right:
            if u in partners:
                edges.append((l_index[t], r_index[u], Fraction(1)))
    for u in right:
        edges.append((r_index[u], sink, d2.get(u)))
    return max_flow(sink + 1, edges, 0, sink) == 1


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
    """A PTS over dense state numbers, the order of `pts.states`: `steps[x]`
    lists x's steps in the order of `pts.outgoing`, their probabilities times
    `scale`, the least common denominator of every probability in the PTS."""

    def __init__(self, pts: PTS):
        self.pts, self.num = pts, {s: i for i, s in enumerate(pts.states)}
        self.scale = 1
        for d in {p.denominator for tr in pts.transitions for _, p in tr.target.items()}:
            self.scale *= Fraction(self.scale, d).denominator  # so the least common multiple
        self.steps: list[list[Step]] = [[] for _ in pts.states]
        for tr in pts.transitions:
            self.steps[self.num[tr.source]].append(self.step(tr))

    def step(self, tr: PtsTransition) -> Step:
        num, scale, items = self.num, self.scale, tr.target.items()
        if len(items) == 1:  # a point mass
            return num[tr.source], tr.label, (num[items[0][0]],), (scale,)
        weights = tuple([p.numerator * (scale // p.denominator) for _, p in items])
        return num[tr.source], tr.label, tuple([num[u] for u, _ in items]), weights


def _partition(ix: _Index, signing: Callable[..., list]) -> tuple[StateRelation, list[int], list, list, list]:
    """The coarsest partition in which no block splits by `signing(ix, block,
    members, moves, inert)`, a block's signatures against the blocks (state ->
    id): as a relation, each state's block, each block's members and each
    state's `_steps`, recomputed only when it or a target changes block.  A
    round re-signs the blocks holding such a state; a split keeps its id."""
    n = len(ix.steps)
    block, members = [0] * n, [list(range(n))]
    sources: list[list[int]] = [[] for _ in range(n)]
    for x, steps in enumerate(ix.steps):
        for step in steps:
            for u in step[2]:
                sources[u].append(x)
    moves, inert = [None] * n, [None] * n  # each state's, kept until it goes stale
    stale, dirty = set(range(n)), [0]
    while dirty:
        for b in dirty:
            for x in members[b]:
                if x in stale:
                    moves[x], inert[x] = _steps(ix, block, x)
            stale.difference_update(members[b])
            parts: dict[Hashable, list[int]] = {}
            for x, sig in zip(members[b], signing(ix, block, members[b], moves, inert)):
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
    states = ix.pts.states
    sets = [frozenset(states[x] for x in ms) for ms in members]
    return StateRelation(states, {s: sets[block[x]] for x, s in enumerate(states)}), block, members, moves, inert


def _masses(block: Mapping[Hashable, Hashable], targets: Sequence[Hashable], weights: Sequence) -> frozenset:
    """The block masses of a distribution: each block with its summed weight."""
    if len(targets) == 1:
        return frozenset(((block[targets[0]], weights[0]),))
    acc: dict[Hashable, int] = {}
    for u, w in zip(targets, weights):
        b = block[u]
        acc[b] = acc[b] + w if b in acc else w
    return frozenset(acc.items())


def _steps(ix: _Index, block: list[int], x: int) -> tuple[frozenset, list[Step]]:
    """The moves of `x`, the (label, block masses) of its non-inert steps,
    and its inert steps: tau-steps whose targets lie in its block."""
    moves, inert, b = set(), [], block[x]
    for step in ix.steps[x]:
        if step[1] == "tau" and all(block[u] == b for u in step[2]):
            inert.append(step)
        else:
            moves.add((step[1], _masses(block, step[2], step[3])))
    return frozenset(moves), inert


def _inert_reach(inert: list[list[Step]], x: int) -> list[int]:
    """The states `x` reaches through `inert` steps, `x` first; a step
    reaches every state of its support."""
    reach, seen = [x], {x}
    for u in reach:
        for step in inert[u]:
            for v in step[2]:
                if v not in seen:
                    seen.add(v)
                    reach.append(v)
    return reach


# ---------------------------------------------------------------------------
# The per-pair checks, against any relation: witnesses and the last pbranching sweeps

# A per-pair check: the first challenge of `s` that `t` fails to match, or None.
PairCheck = Callable[[Term, Term], Optional[PtsTransition]]


def _first_unmatched(
    pts: PTS,
    rel: Mapping[Term, set],
    matched: Callable[[Term, PtsTransition, Term], bool],
) -> PairCheck:
    """The matching loop of every decider: each non-inert challenge of `s`
    must be `matched` from `t`."""

    def check(s: Term, t: Term) -> Optional[PtsTransition]:
        members = rel.get(s, set()) & rel.get(t, set())  # an inert challenge stays among them
        for tr in pts.outgoing(s):
            if not (tr.label == "tau" and members.issuperset(tr.target.support)) and not matched(s, tr, t):
                return tr
        return None

    return check


# -- scheduler-free branching bisimulation ----------------------------------

def _branching_check(pts: PTS, rel: Mapping[Term, set]) -> PairCheck:
    lift = functools.cache(functools.partial(lift_check, rel))  # the relation is fixed within one sweep
    return _first_unmatched(
        pts, rel, lambda s, tr, t: _execution_match(pts, rel, s, tr, t, lift)
    )


def _branching_signatures(ix: _Index, block: list[int], members: list[int], moves: list, inert: list) -> list[Hashable]:
    # what x can do after inert steps: the non-inert moves of every state it reaches
    return [
        frozenset().union(*(moves[u] for u in _inert_reach(inert, x))) if inert[x] else moves[x]
        for x in members
    ]


def branching_bisim(pts: PTS) -> StateRelation:
    """Greatest branching bisimulation, computed without schedulers."""
    return _partition(_Index(pts), _branching_signatures)[0]


def _execution_match(
    pts: PTS,
    rel: Mapping[Term, set],
    s: Term,
    challenge: PtsTransition,
    t: Term,
    lift: Callable[[Distribution, Distribution], bool],
) -> bool:
    """Search a concrete execution from `t`: inert tau-steps whose supports
    stay related to `s`, ending in a `challenge.label` step with lifted-related
    target."""
    related_to_s = rel.get(s, set())
    seen = {t}
    queue = [t]
    while queue:
        u = queue.pop(0)
        for tr in pts.outgoing(u, challenge.label):
            if lift(challenge.target, tr.target):
                return True
        for tr in pts.outgoing(u, "tau"):
            if set(tr.target.support) <= related_to_s:
                for v in tr.target.support:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
    return False


# -- probabilistic branching bisimulation ------------------------------------

def _pbranching_check(pts: PTS, rel: Mapping[Term, set], ix: Optional[_Index] = None) -> PairCheck:
    ix = _Index(pts) if ix is None else ix
    preserving = [ix.step(tr) for tr in pts.transitions
                  if tr.label == "tau" and rel.get(tr.source, set()).issuperset(tr.target.support)]
    match = functools.cache(lambda challenge, t: _combined_match(ix, rel, preserving, *challenge, t))
    return _first_unmatched(pts, rel, lambda s, tr, t: match(ix.step(tr)[1:], ix.num[t]))


def _pbranching_signatures(
    ix: _Index, block: list[int], members: list[int], moves: list, inert: list, stay: bool = True
) -> list[Hashable]:
    # the non-inert moves of the block that t matches; t matches its own
    candidates = frozenset().union(*(moves[x] for x in members))
    sigs = []
    for t in members:
        reach = _inert_reach(inert, t)
        steps = [step for u in reach for step in inert[u]]
        sigs.append(frozenset(
            c for c in candidates if c in moves[t] or _block_match(ix, block, t, reach, steps, *c, stay)
        ))
    return sigs


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
    ix = _Index(pts)
    rel, block, members, moves, inert = _partition(ix, _pbranching_signatures)
    if all(len(set(_pbranching_signatures(ix, block, ms, moves, inert, False))) == 1 for ms in members):
        return rel
    table = {u: set(rel.partners(u)) for u in rel.states}
    while True:
        shared = _pbranching_check(pts, table, ix)
        failed = []
        for s in rel.states:
            for t in table[s] - {s}:
                check = shared if table[s] == table[t] else _pbranching_check(pts, _common(table, s, t), ix)
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
    ix: _Index, block: list[int], t: int, reach: list[int], inert: list[Step],
    label: str, masses: frozenset, stay: bool,
) -> bool:
    """`_combined_match` against a partition: a weak phase over the inert
    steps among the states `t` reaches by them, then a convex choice of
    `label` steps, or for tau and `stay` of staying put, whose combined
    target has the given block masses.  A step that reaches a block without
    mass takes none, and no LP is built when some block with mass is reached
    by no other step, nor by staying put."""
    steps = [step for u in reach for step in ix.steps[u] if step[1] == label]
    stay = stay and label == "tau"
    # staying alone never leaves the block; t's one step is its own move, tried by the caller
    if not steps or (not inert and not stay and len(steps) == 1):
        return False
    want, scale = dict(masses), ix.scale
    steps += [(u, label, (u,), (scale,)) for u in reach] if stay else []  # staying put, as a step
    steps = [step for step in steps if all(block[u] in want for u in step[2])]
    if len({block[u] for step in steps for u in step[2]}) < len(want) or (not inert and len(steps) == 1):
        return False
    # a flow row per reached state, then a row per block with mass, for the combined target
    at, lift = {u: i for i, u in enumerate(reach)}, {b: len(reach) + i for i, b in enumerate(want)}
    rows: list[dict[int, int]] = [{} for _ in range(len(reach) + len(lift))]
    col = _flow_rows(rows, at, inert, 0, scale)
    _flow_rows(rows, at, steps, col, scale, {u: lift[block[u]] for step in steps for u in step[2]})
    rhs = [scale] + [0] * (len(reach) - 1) + [-m for m in want.values()]  # reach[0] is t
    return lp.feasible(rows, rhs)


def _combined_match(
    ix: _Index, rel: Mapping[Term, set], preserving: Sequence[Step], label: str, targets: tuple, weights: tuple, t: int
) -> bool:
    """One linear feasibility question: does some weak tau-step of `t` inside
    the preserving set reach an intermediate distribution whose one-step
    `label`-combination is lifting-related to the challenge target?"""
    steps = [step for out in ix.steps for step in out if step[1] == label]
    if not steps:
        return False
    n, scale, states = len(ix.steps), ix.scale, ix.pts.states
    # a weak tau phase inside the preserving set, then one label-step per stopped unit; the
    # second n rows lift the challenge target against the combined target, a column per related pair
    rows: list[dict[int, int]] = [{} for _ in range(2 * n)]
    col = _flow_rows(rows, range(n), preserving, 0, scale)
    col = _flow_rows(rows, range(n), steps, col, scale, range(n, 2 * n))
    rhs = [scale if u == t else 0 for u in range(n)] + [0] * n
    for p, w in zip(targets, weights):
        row = {}
        for v in sorted(ix.num[v] for v in rel.get(states[p], ())):
            row[col] = rows[n + v][col] = scale
            col += 1
        rows.append(row)
        rhs.append(w)
    return lp.feasible(rows, rhs)


# -- rooted branching bisimulation -------------------------------------------

def _rooted_challenge(
    pts: PTS, bb: StateRelation, s: Term, t: Term
) -> Optional[tuple[Term, PtsTransition]]:
    """The first initial step of `s` or `t` that the other state cannot mirror
    by one equally labelled step with a `bb`-lifted target."""
    for x, y in ((s, t), (t, s)):
        for tr in pts.outgoing(x):
            want = _masses(bb._by_left, *zip(*tr.target.items()))
            if all(_masses(bb._by_left, *zip(*o.target.items())) != want for o in pts.outgoing(y, tr.label)):
                return x, tr
    return None


def rooted_branching_bisim(
    pts: PTS, s: Term, t: Term, bb: Optional[StateRelation] = None
) -> bool:
    """Initial transitions must match strictly (equal labels, single steps)
    with branching-bisimulation-lifted targets."""
    if not pts.has_state(s) or not pts.has_state(t):
        raise ValueError("both states must belong to the PTS")
    if bb is None:
        bb = branching_bisim(pts)
    return _rooted_challenge(pts, bb, s, t) is None


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
    pts: PTS, kind: str, s: Term, t: Term, rel: Optional[StateRelation] = None
) -> Optional[tuple[Term, PtsTransition]]:
    """A transition certifying s and t are not `kind`-related, if they are not.

    `rel` is the relation `decide(kind, pts)` computes, and is computed when
    not given.  The certificate is a challenge that fails the kind's own
    per-pair check even when the queried pair is added to that relation.
    """
    if rel is None:
        rel = decide(kind, pts).relation
    if kind == "rooted":
        return _rooted_challenge(pts, rel, s, t)
    if rel.related(s, t):
        return None
    table = {u: set(rel.partners(u)) for u in pts.states}
    table.setdefault(s, set()).add(t)
    table.setdefault(t, set()).add(s)
    check = (_branching_check if kind == "branching" else _pbranching_check)(pts, table)
    for x, y in ((s, t), (t, s)):
        tr = check(x, y)
        if tr is not None:
            return x, tr
    return None
