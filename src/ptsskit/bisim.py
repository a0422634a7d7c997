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

Both compute the greatest symmetric relation by deleting violating pairs
from the full relation.  Relation lifting is decided by exact max-flow.
`rooted_branching_bisim` matches the initial steps of a pair strictly
against the branching relation.  The scheduler-based definitions these
characterizations are checked against live in the tests, as an oracle.

`decide(kind, pts)` is the query entry point: it computes the relation of a
kind once and answers relatedness, classes and a distinguishing witness, the
last by running the kind's own per-pair check once more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

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
    """A set of state pairs with constant-time membership."""

    def __init__(self, states: Sequence[Term], pairs: Iterable[tuple[Term, Term]]):
        self.states = tuple(states)
        self.pairs = frozenset(pairs)
        self._by_left: dict[Term, set[Term]] = {}
        for s, t in self.pairs:
            self._by_left.setdefault(s, set()).add(t)

    def related(self, s: Term, t: Term) -> bool:
        return (s, t) in self.pairs

    def partners(self, s: Term) -> set[Term]:
        return self._by_left.get(s, set())

    def is_symmetric(self) -> bool:
        return all((t, s) in self.pairs for s, t in self.pairs)

    def is_equivalence(self) -> bool:
        if not all((s, s) in self.pairs for s in self.states):
            return False
        if not self.is_symmetric():
            return False
        for s, t in self.pairs:
            if not self._by_left.get(t, set()) <= self._by_left.get(s, set()):
                return False
        return True

    def classes(self) -> tuple[tuple[Term, ...], ...]:
        seen: set[Term] = set()
        out: list[tuple[Term, ...]] = []
        for s in sorted(self.states, key=render_term):
            if s in seen:
                continue
            block = sorted(self.partners(s) | {s}, key=render_term)
            seen.update(block)
            out.append(tuple(block))
        return tuple(out)

    def __contains__(self, pair: tuple[Term, Term]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)


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
    rows: Optional[dict[Term, dict]] = None,
) -> dict[Term, dict]:
    """Flow conservation, one row of coefficients per state: the occupation
    variable (tag, i) of the i-th transition tr counts 1 in the row of tr's
    source if `leave`, and -p in the row of each state that tr reaches with
    probability p if `enter`.  Adds to `rows` when given."""
    if rows is None:
        rows = {u: {} for u in states}
    for i, tr in enumerate(transitions):
        if leave:
            rows[tr.source][tag, i] = 1
        if enter:
            for u, p in tr.target.items():
                rows[u][tag, i] = rows[u].get((tag, i), 0) - p
    return rows


# ---------------------------------------------------------------------------
# Greatest-fixpoint computation shared by the deciders

# A per-pair check: the first challenge of `s` that `t` fails to match, or None.
PairCheck = Callable[[Term, Term], Optional[PtsTransition]]


def _refine(pts: PTS, make_check: Callable[[PTS, Mapping[Term, set]], PairCheck]) -> StateRelation:
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
            return StateRelation(states, pairs)
        pairs = new_pairs


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

def _cached_lift(rel: Mapping[Term, set]) -> Callable[[Distribution, Distribution], bool]:
    # the relation table is fixed within one refinement sweep
    cache: dict[tuple[Distribution, Distribution], bool] = {}

    def check(d1: Distribution, d2: Distribution) -> bool:
        key = (d1, d2)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = lift_check(rel, d1, d2)
        return hit

    return check


def _branching_check(pts: PTS, rel: Mapping[Term, set]) -> PairCheck:
    lift = _cached_lift(rel)
    return _first_unmatched(
        pts, rel, lambda s, tr, t: _execution_match(pts, rel, s, tr, t, lift)
    )


def branching_bisim(pts: PTS) -> StateRelation:
    """Greatest branching bisimulation, computed without schedulers."""
    return _refine(pts, _branching_check)


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


def prob_branching_bisim(pts: PTS) -> StateRelation:
    """Greatest probabilistic branching bisimulation: combined matching via an
    allowed weak tau-step followed by a one-step convex combination."""
    return _refine(pts, _pbranching_check)


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
    sys = LinearSystem()
    # weak tau phase: occupation x over preserving transitions, sigma = stop mass
    for u, coeffs in _flow_rows(pts.states, preserving, "x").items():
        coeffs[("sigma", u)] = 1
        sys.add_equation(coeffs, 1 if u == t else 0)
    # every stopped unit takes exactly one label-step (convex per state)
    for u, coeffs in _flow_rows(pts.states, steps, "y", enter=False).items():
        coeffs[("sigma", u)] = -1
        sys.add_equation(coeffs, 0)
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
            if not any(
                lift_check(bb, tr.target, other.target)
                for other in pts.outgoing(y, tr.label)
            ):
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
