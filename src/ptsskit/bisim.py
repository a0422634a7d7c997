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
1990; Blom & Orzan 2003); lifting against a partition is equality of block
masses.  `rooted_branching_bisim` matches the initial steps of a pair
strictly against the branching relation.  The scheduler-based definitions
and the pair-deleting fixpoint live in the tests, as oracles.

`decide(kind, pts)` is the query entry point: it computes the relation of a
kind once and answers relatedness, classes and a distinguishing witness, the
last by running the kind's own per-pair check once more on the relation plus
the queried pair, which lifts by exact max-flow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

from .distributions import Distribution
from .engine import PTS, PtsTransition
from .lp import LinearSystem, max_flow
from .terms import Term, render_term

EPSILON = "eps"

# the relations `decide` answers for: branching, probabilistic branching and
# rooted branching bisimulation
KINDS = ("branching", "pbranching", "rooted")

RelationLike = Union["StateRelation", Iterable[tuple[Term, Term]], Mapping[Term, set]]


class StateRelation:
    """A symmetric relation on the states of a PTS, as each state's set of
    partners.  The deciders' relations are equivalences, each class sharing
    one set, except for the rare pbranching fixpoint that is not transitive."""

    def __init__(self, states: Sequence[Term], partners: Mapping[Term, frozenset[Term]]):
        self.states = tuple(states)
        self._by_left = dict(partners)

    def related(self, s: Term, t: Term) -> bool:
        return t in self.partners(s)

    def partners(self, s: Term) -> frozenset[Term]:
        return self._by_left.get(s, frozenset())

    @property
    def pairs(self) -> frozenset[tuple[Term, Term]]:
        """Every related pair, n² of them for one block."""
        return frozenset((s, t) for s in self.states for t in self.partners(s))

    def is_equivalence(self) -> bool:
        return all(
            s in self.partners(s) and all(self.partners(t) == self.partners(s) for t in self.partners(s))
            for s in self.states
        )

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
# Weak combined transitions

def weak_combined_reachable(
    pts: PTS,
    s: Term,
    a: Optional[str],
    target: Distribution,
    allowed: Optional[Iterable[PtsTransition]] = None,
) -> bool:
    """Is there a scheduler taking `s` to `target` executing exactly the trace
    of `a` (empty for EPSILON/tau) with probability 1?

    Decided by exact linear feasibility over per-transition occupation
    variables, split into a before-`a` and an after-`a` phase for visible `a`.
    """
    if not pts.has_state(s):
        raise ValueError(f"not a state of the PTS: {render_term(s)}")
    if target.total_mass != 1:
        raise ValueError("weak transitions target full distributions")
    for u in target.support:
        if not pts.has_state(u):
            raise ValueError(f"target mentions a foreign state: {render_term(u)}")
    if allowed is None:
        allowed_set = set(pts.transitions)
    else:
        allowed_set = set(allowed)
        if not allowed_set <= set(pts.transitions):
            raise ValueError("allowed set must be a subset of the PTS transitions")

    taus = [tr for tr in pts.transitions if tr.label == "tau" and tr in allowed_set]
    sys = LinearSystem()
    if a in (None, EPSILON, "tau"):
        for u, coeffs in _flow_rows(pts.states, taus, "x").items():
            sys.add_equation(coeffs, (1 if u == s else 0) - target.get(u))
        return sys.is_feasible()

    # tau flow x until the `a`-step y, then tau flow z; y leaves the first
    # phase and enters the second
    visibles = [tr for tr in pts.transitions if tr.label == a and tr in allowed_set]
    before = _flow_rows(pts.states, taus, "x")
    _flow_rows(pts.states, visibles, "y", enter=False, rows=before)
    for u, coeffs in before.items():
        sys.add_equation(coeffs, 1 if u == s else 0)
    after = _flow_rows(pts.states, taus, "z")
    _flow_rows(pts.states, visibles, "y", leave=False, rows=after)
    for u, coeffs in after.items():
        sys.add_equation(coeffs, -target.get(u))
    return sys.is_feasible()


def _flow_rows(
    states: Sequence[Term],
    transitions: Iterable[PtsTransition],
    tag: str,
    leave: bool = True,
    enter: bool = True,
    rows: Optional[dict[Hashable, dict]] = None,
    at: Optional[Mapping[Term, Hashable]] = None,
) -> dict[Hashable, dict]:
    """Flow conservation, one row of coefficients per state: the occupation
    variable (tag, i) of the i-th transition tr counts 1 in the row of tr's
    source if `leave`, and -p in the row of each state that tr reaches with
    probability p if `enter` (in the row `at[state]` when `at` is given).
    Adds to `rows` when given, making the rows it lacks."""
    if rows is None:
        rows = {u: {} for u in states}
    for i, tr in enumerate(transitions):
        if leave:
            rows[tr.source][tag, i] = 1
        if enter:
            for u, p in tr.target.items():
                row = rows.setdefault(u if at is None else at[u], {})
                row[tag, i] = row.get((tag, i), 0) - p
    return rows


# ---------------------------------------------------------------------------
# Partition refinement shared by the deciders

def _partition(pts: PTS, signing: Callable[[PTS, dict[Term, int], list[Term]], list]) -> StateRelation:
    """The coarsest partition in which no block splits by `signing`, the
    signatures of a block's members against the blocks (state -> id).  A
    round re-signs the blocks that split in the round before and those with
    a member stepping into one.  The first part of a split keeps its id."""
    states = list(pts.states)  # in text order
    block = dict.fromkeys(states, 0)
    members = [states]
    sources: dict[Term, set[Term]] = {}
    for tr in pts.transitions:
        for u in tr.target.support:
            sources.setdefault(u, set()).add(tr.source)
    dirty = {0}
    while dirty:
        split = []
        for b in sorted(dirty):
            parts: dict[Hashable, list[Term]] = {}
            for x, sig in zip(members[b], signing(pts, block, members[b])):
                parts.setdefault(sig, []).append(x)
            if len(parts) > 1:
                members[b], *rest = parts.values()
                split.append(b)
                for part in rest:
                    split.append(len(members))
                    block.update(dict.fromkeys(part, len(members)))
                    members.append(part)
        dirty = {block[u] for b in split for x in members[b] for u in sources.get(x, ())}
        dirty.update(split)
    sets = [frozenset(ms) for ms in members]
    return StateRelation(states, {s: sets[block[s]] for s in states})


def _masses(block: Mapping[Term, Hashable], d: Distribution) -> frozenset[tuple[Hashable, Fraction]]:
    """The block masses of `d`: each block with d(block)."""
    acc: dict[Hashable, Fraction] = {}
    for u, p in d.items():
        b = block[u]
        acc[b] = acc[b] + p if b in acc else p
    return frozenset(acc.items())


def _steps(pts: PTS, block: Mapping[Term, int], members: list[Term]) -> tuple[dict, dict]:
    """Each member's moves, the (label, block masses) of its non-inert steps,
    and its inert steps: tau-steps whose support lies in its block."""
    moves: dict[Term, set] = {}
    inert: dict[Term, list[PtsTransition]] = {}
    for x in members:
        moves[x], inert[x], b = set(), [], block[x]
        for tr in pts.outgoing(x):
            if tr.label == "tau" and all(block[u] == b for u in tr.target.support):
                inert[x].append(tr)
            else:
                moves[x].add((tr.label, _masses(block, tr.target)))
    return moves, inert


def _inert_reach(inert: Mapping[Term, list], x: Term) -> list[Term]:
    """The states `x` reaches through `inert` steps, `x` first; a step
    reaches every state of its support."""
    reach, seen = [x], {x}
    for u in reach:
        for tr in inert[u]:
            for v in tr.target.support:
                if v not in seen:
                    seen.add(v)
                    reach.append(v)
    return reach


# ---------------------------------------------------------------------------
# The per-pair checks, against any relation: witnesses and the last pbranching sweeps

# A per-pair check: the first challenge of `s` that `t` fails to match, or None.
PairCheck = Callable[[Term, Term], Optional[PtsTransition]]


def _inert(rel: Mapping[Term, set], s: Term, t: Term, tr: PtsTransition) -> bool:
    # branching-preserving challenge, anchored at both members of the pair
    members = rel.get(s, set()) & rel.get(t, set())
    return tr.label == "tau" and set(tr.target.support) <= members


def _preserving_set(pts: PTS, rel: Mapping[Term, set]) -> list[PtsTransition]:
    return [
        tr
        for tr in pts.transitions
        if tr.label == "tau" and set(tr.target.support) <= rel.get(tr.source, set())
    ]


def _first_unmatched(
    pts: PTS,
    rel: Mapping[Term, set],
    matched: Callable[[Term, PtsTransition, Term], bool],
) -> PairCheck:
    """The matching loop of every decider: each non-inert challenge of `s`
    must be `matched` from `t`."""

    def check(s: Term, t: Term) -> Optional[PtsTransition]:
        for tr in pts.outgoing(s):
            if not _inert(rel, s, t, tr) and not matched(s, tr, t):
                return tr
        return None

    return check


# -- scheduler-free branching bisimulation ----------------------------------

def _branching_check(pts: PTS, rel: Mapping[Term, set]) -> PairCheck:
    lift = functools.cache(functools.partial(lift_check, rel))  # the relation is fixed within one sweep
    return _first_unmatched(
        pts, rel, lambda s, tr, t: _execution_match(pts, rel, s, tr, t, lift)
    )


def _branching_signatures(pts: PTS, block: Mapping[Term, int], members: list[Term]) -> list[Hashable]:
    # what x can do after inert steps: the non-inert moves of every state it reaches
    moves, inert = _steps(pts, block, members)
    return [
        frozenset().union(*(moves[u] for u in _inert_reach(inert, x))) if inert[x] else frozenset(moves[x])
        for x in members
    ]


def branching_bisim(pts: PTS) -> StateRelation:
    """Greatest branching bisimulation, computed without schedulers."""
    return _partition(pts, _branching_signatures)


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

def _pbranching_check(pts: PTS, rel: Mapping[Term, set]) -> PairCheck:
    preserving = _preserving_set(pts, rel)
    cache: dict[tuple[Distribution, str, Term], bool] = {}

    def matched(s: Term, tr: PtsTransition, t: Term) -> bool:
        key = (tr.target, tr.label, t)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = _combined_match(pts, rel, preserving, tr, t)
        return hit

    return _first_unmatched(pts, rel, matched)


def _pbranching_signatures(
    pts: PTS, block: Mapping[Term, int], members: list[Term], stay: bool = True
) -> list[Hashable]:
    # the non-inert moves of the block that t matches; t matches its own
    moves, inert = _steps(pts, block, members)
    candidates = set().union(*moves.values())
    sigs = []
    for t in members:
        reach = _inert_reach(inert, t)
        steps = [tr for u in reach for tr in inert[u]]
        sigs.append(frozenset(
            c for c in candidates if c in moves[t] or _block_match(pts, block, t, reach, steps, *c, stay)
        ))
    return sigs


def prob_branching_bisim(pts: PTS) -> StateRelation:
    """Greatest probabilistic branching bisimulation: combined matching via an
    allowed weak tau-step followed by a one-step convex combination.

    One state of a related pair may mix an inert tau-step into a combination
    where the other cannot, so the signatures let a unit stay put instead.
    Unless each member then matches every move of its block without staying
    put, sweeps of the per-pair check delete the pairs of a block that fail;
    the pairs they keep need not be transitive."""
    rel = _partition(pts, _pbranching_signatures)
    block = {s: i for i, c in enumerate(rel.classes()) for s in c}
    if all(len(set(_pbranching_signatures(pts, block, list(c), False))) == 1 for c in rel.classes()):
        return rel
    table = {u: set(rel.partners(u)) for u in rel.states}
    while True:
        check = _pbranching_check(pts, table)
        failed = [(s, t) for s in rel.states for t in table[s] if s != t and check(s, t) is not None]
        if not failed:
            return StateRelation(rel.states, {s: frozenset(table[s]) for s in rel.states})
        for s, t in failed:
            table[s].discard(t)
            table[t].discard(s)


def _block_match(
    pts: PTS, block: Mapping[Term, int], t: Term, reach: list, inert: list, label: str, masses: frozenset, stay: bool
) -> bool:
    """`_combined_match` against a partition: a weak phase over the inert
    steps among the states `t` reaches by them, then a convex choice of
    `label` steps, or for tau and `stay` of staying put, whose combined
    target has the given block masses."""
    steps = [tr for u in reach for tr in pts.outgoing(u, label)]
    stay = stay and label == "tau"
    # staying alone never leaves the block; t's one step is its own move, tried by the caller
    if not steps or (not inert and not stay and len(steps) == 1):
        return False
    sys = _weak_then_step(reach, inert, steps, t, stay)
    want = dict(masses)
    lift = _flow_rows((), steps, "y", leave=False, rows={b: {} for b in want}, at=block)
    if stay:
        lift.setdefault(block[t], {}).update({("stay", u): -1 for u in reach})
    for b, coeffs in lift.items():
        sys.add_equation(coeffs, -want.get(b, 0))
    return sys.is_feasible()


def _weak_then_step(
    states: Sequence[Term], weak: Sequence[PtsTransition], steps: Sequence[PtsTransition], t: Term, stay: bool = False
) -> LinearSystem:
    """The rows both combined matches share: occupation x of the `weak`
    steps from `t` and sigma, the mass stopped at each state; every stopped
    unit then takes exactly one of `steps` (y) or, with `stay`, stays put."""
    sys = LinearSystem()
    for u, coeffs in _flow_rows(states, weak, "x").items():
        coeffs[("sigma", u)] = 1
        sys.add_equation(coeffs, 1 if u == t else 0)
    for u, coeffs in _flow_rows(states, steps, "y", enter=False).items():
        coeffs[("sigma", u)] = -1
        if stay:
            coeffs[("stay", u)] = 1
        sys.add_equation(coeffs, 0)
    return sys


def _combined_match(
    pts: PTS,
    rel: Mapping[Term, set],
    preserving: Sequence[PtsTransition],
    challenge: PtsTransition,
    t: Term,
) -> bool:
    """One linear feasibility question: does some weak tau-step of `t` inside
    the preserving set reach an intermediate distribution whose one-step
    `label`-combination is lifting-related to the challenge target?"""
    label = challenge.label
    pi_s = challenge.target
    steps = [tr for tr in pts.transitions if tr.label == label]
    if not steps:
        return False
    # a weak tau phase inside the preserving set, then one label-step per stopped unit
    sys = _weak_then_step(pts.states, preserving, steps, t)
    # lifting of pi_s against the resulting distribution
    for p in pi_s.support:
        coeffs = {("w", p, v): 1 for v in pts.states if v in rel.get(p, set())}
        sys.add_equation(coeffs, pi_s.get(p))
    for v, coeffs in _flow_rows(pts.states, steps, "y", leave=False).items():
        for p in pi_s.support:
            if v in rel.get(p, set()):
                coeffs[("w", p, v)] = 1
        sys.add_equation(coeffs, 0)
    return sys.is_feasible()


# -- rooted branching bisimulation -------------------------------------------

def _rooted_challenge(
    pts: PTS, bb: StateRelation, s: Term, t: Term
) -> Optional[tuple[Term, PtsTransition]]:
    """The first initial step of `s` or `t` that the other state cannot mirror
    by one equally labelled step with a `bb`-lifted target."""
    for x, y in ((s, t), (t, s)):
        for tr in pts.outgoing(x):
            want = _masses(bb._by_left, tr.target)
            if not any(_masses(bb._by_left, other.target) == want for other in pts.outgoing(y, tr.label)):
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

@dataclass(frozen=True)
class Decision:
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
