"""The scheduler semantics of a PTS, kept as a test oracle.

Explicit schedulers, the cones they assign probability to, the weak
transitions they induce, and a brute-force branching bisimulation whose weak
tau prefixes range over deterministic schedulers of bounded length.  These
are the scheduler-based definitions that the scheduler-free deciders of
`ptsskit.bisim` are checked against.  The oracle carries its own
pair-deletion fixpoint, so the library's refinement can change without
touching it.

Beside them sits the scheduler-free decision of a weak combined transition,
`weak_combined_reachable`: one exact LP over per-transition occupations,
written with the library's integer index and row builder (`_Index`,
`_flow_rows`).  No command runs it; the deciders solve their weak phase
inside their block matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Optional

from ptsskit import lp
from ptsskit.bisim import _flow_rows, _Index, lift_check
from ptsskit.distributions import Distribution
from ptsskit.engine import PTS, PtsTransition
from ptsskit.errors import BoundError
from ptsskit.terms import Term, render_term
from tests.reference_refine import PairRelation


EPSILON = "eps"  # the empty trace of a weak transition, as tau


class BudgetExceededError(BoundError):
    pass


def mass(d: Distribution, terms: Iterable[Term]) -> Fraction:
    """Summed probability of a set of state terms."""
    return sum((d.get(t) for t in set(terms)), Fraction(0))


# ---------------------------------------------------------------------------
# Explicit schedulers, cones, weak combined transitions

Fragment = tuple  # alternating state, action, state, ... (odd length)


@dataclass(frozen=True)
class Scheduler:
    """Explicit finite scheduler: fragments map to sub-distributions over the
    outgoing transitions of the fragment's last state; missing fragments stop."""

    choices: Mapping[Fragment, Mapping[PtsTransition, Fraction]]

    def at(self, frag: Fragment) -> Mapping[PtsTransition, Fraction]:
        return self.choices.get(frag, {})

    def stop_mass(self, frag: Fragment) -> Fraction:
        return Fraction(1) - sum(self.at(frag).values(), Fraction(0))

    def is_deterministic(self) -> bool:
        for dist in self.choices.values():
            total = sum(dist.values(), Fraction(0))
            if total not in (0, 1) or (total == 1 and len(dist) != 1):
                return False
        return True


def _check_scheduler(pts: PTS, sched: Scheduler) -> None:
    for frag, dist in sched.choices.items():
        last = frag[-1]
        total = Fraction(0)
        for tr, p in dist.items():
            if tr.source != last:
                raise ValueError("scheduler picks a transition not outgoing from the fragment end")
            if p < 0:
                raise ValueError("scheduler probabilities must be nonnegative")
            total += p
        if total > 1:
            raise ValueError("scheduler choice exceeds probability 1")


def cone_probability(pts: PTS, sched: Scheduler, s: Term, frag: Fragment) -> Fraction:
    """Probability of the cone of `frag` under the scheduler started at `s`."""
    if len(frag) == 1:
        return Fraction(1) if frag[0] == s else Fraction(0)
    prefix, action, last = frag[:-2], frag[-2], frag[-1]
    base = cone_probability(pts, sched, s, prefix)
    if base == 0:
        return base
    choice = sched.at(prefix)
    step = Fraction(0)
    for tr in pts.outgoing(prefix[-1], action):
        step += choice.get(tr, Fraction(0)) * tr.target.get(last)
    return base * step


def execution_probability(pts: PTS, sched: Scheduler, s: Term, frag: Fragment) -> Fraction:
    """Probability of executing exactly `frag` (reach it, then stop)."""
    return cone_probability(pts, sched, s, frag) * sched.stop_mass(frag)


def trace_of(frag: Fragment) -> tuple[str, ...]:
    return tuple(a for a in frag[1::2] if a != "tau")


def _reachable_fragments(pts: PTS, sched: Scheduler, s: Term) -> Iterator[tuple[Fragment, Fraction]]:
    frontier: list[tuple[Fragment, Fraction]] = [((s,), Fraction(1))]
    while frontier:
        frag, p = frontier.pop()
        yield frag, p
        choice = sched.at(frag)
        for tr, q in choice.items():
            if q == 0:
                continue
            for target, mass in tr.target.items():
                frontier.append((frag + (tr.label, target), p * q * mass))


def scheduler_weak_transition(
    pts: PTS, sched: Scheduler, s: Term, a: str
) -> Optional[Distribution]:
    """Endpoint distribution if the scheduler induces a weak combined
    transition for `a` (or EPSILON) from `s`; None otherwise."""
    _check_scheduler(pts, sched)
    want: tuple[str, ...] = () if a in (EPSILON, "tau") else (a,)
    stopped: list[tuple[Term, Fraction]] = []
    total = Fraction(0)
    for frag, cone in _reachable_fragments(pts, sched, s):
        stop = sched.stop_mass(frag) * cone
        if stop > 0:
            if trace_of(frag) != want:
                return None
            stopped.append((frag[-1], stop))
            total += stop
    if total != 1:
        return None
    return Distribution(stopped)


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
    allowed_set = set(pts.transitions if allowed is None else allowed)
    if not allowed_set <= set(pts.transitions):
        raise ValueError("allowed set must be a subset of the PTS transitions")
    ix = _Index(pts)
    n, scale = len(pts.states), ix.scale
    taus = [ix.step(tr) for tr in pts.transitions if tr.label == "tau" and tr in allowed_set]
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    col = _flow_rows(rows, range(n), taus, 0, scale)
    if a not in (None, EPSILON, "tau"):
        # tau flow x until the `a`-step y, then tau flow z; y leaves the first
        # phase and enters the second
        visibles = [ix.step(tr) for tr in pts.transitions if tr.label == a and tr in allowed_set]
        rows += [{} for _ in range(n)]
        col = _flow_rows(rows, range(n), visibles, col, scale, range(n, 2 * n))
        _flow_rows(rows, range(n, 2 * n), taus, col, scale)
    rhs = [scale if u == ix.num[s] else 0 for u in range(n)] + [0] * (len(rows) - n)
    for u, p in target.items():  # the target is met in the rows of the last phase
        rhs[len(rows) - n + ix.num[u]] -= scale * p
    return lp.feasible(rows, rhs)


# ---------------------------------------------------------------------------
# Deterministic-scheduler oracle

def branching_bisim_scheduler_oracle(
    pts: PTS, max_len: int = 6, budget: int = 200_000
) -> PairRelation:
    """Brute-force scheduler-based branching bisimulation: weak tau prefixes
    and final steps range over deterministic schedulers of length <= max_len.
    Intended as an independent cross-check on small systems.

    The greatest symmetric relation, found by deleting pairs from the full
    relation: a sweep keeps (s, t) when every challenge of `s` is inert (a
    tau-step whose target lies in the classes of both s and t) or matched
    from `t`, and the next relation keeps the pairs kept in both directions.
    """
    states = sorted(pts.states, key=render_term)
    pairs = {(s, t) for s in states for t in states}
    while True:
        rel: dict[Term, set] = {}
        for s, t in pairs:
            rel.setdefault(s, set()).add(t)
        # the branching-preserving tau-steps: each target stays in its source's class
        preserving: dict[Term, list[PtsTransition]] = {}
        for tr in pts.transitions:
            if tr.label == "tau" and set(tr.target.support) <= rel.get(tr.source, set()):
                preserving.setdefault(tr.source, []).append(tr)
        memo: dict = {}
        counter = [0]
        lift = _cached_lift(rel)

        def holds(s: Term, t: Term) -> bool:
            members = rel[s] & rel[t]
            return all(
                (tr.label == "tau" and set(tr.target.support) <= members)
                or _oracle_match(pts, preserving, tr, t, max_len, budget, memo, counter, lift)
                for tr in pts.outgoing(s)
            )

        kept = {pair for pair in sorted(pairs, key=lambda p: (render_term(p[0]), render_term(p[1])))
                if holds(*pair)}
        new_pairs = {(s, t) for s, t in kept if (t, s) in kept}
        if new_pairs == pairs:
            return PairRelation(states, pairs)
        pairs = new_pairs


def _cached_lift(rel: Mapping[Term, set]) -> Callable[[Distribution, Distribution], bool]:
    # the relation is fixed within one sweep
    cache: dict[tuple[Distribution, Distribution], bool] = {}

    def check(d1: Distribution, d2: Distribution) -> bool:
        key = (d1, d2)
        if key not in cache:
            cache[key] = lift_check(rel, d1, d2)
        return cache[key]

    return check


def _det_endpoints(
    pts: PTS,
    preserving_by_source: Mapping[Term, list[PtsTransition]],
    u: Term,
    depth: int,
    memo: dict,
    counter: list[int],
    budget: int,
) -> list[Distribution]:
    key = (u, depth)
    hit = memo.get(key)
    if hit is not None:
        return hit
    results = {Distribution.dirac(u)}
    if depth > 0:
        for tr in preserving_by_source.get(u, ()):  # deterministic choice of one tau
            support = tr.target.items()
            branch_endpoints = [
                _det_endpoints(pts, preserving_by_source, v, depth - 1, memo, counter, budget)
                for v, _ in support
            ]
            for combo in product(*branch_endpoints):
                items: list[tuple[Term, Fraction]] = []
                for (v, p), endpoint in zip(support, combo):
                    for w, q in endpoint.items():
                        items.append((w, p * q))
                results.add(Distribution(items))
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceededError("scheduler search budget exceeded")
    ordered = sorted(results, key=repr)
    memo[key] = ordered
    return ordered


def _one_step_products(
    pts: PTS, pi_tilde: Distribution, label: str, counter: list[int], budget: int
) -> Iterator[Distribution]:
    options = []
    for u in pi_tilde.support:
        outs = pts.outgoing(u, label)
        if not outs:
            return
        options.append(outs)
    for combo in product(*options):
        items: list[tuple[Term, Fraction]] = []
        for (u, p), tr in zip(pi_tilde.items(), combo):
            for v, q in tr.target.items():
                items.append((v, p * q))
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError("scheduler search budget exceeded")
        yield Distribution(items)


def _oracle_match(
    pts: PTS,
    preserving_by_source: Mapping[Term, list[PtsTransition]],
    challenge: PtsTransition,
    t: Term,
    max_len: int,
    budget: int,
    memo: dict,
    counter: list[int],
    lift: Callable[[Distribution, Distribution], bool],
) -> bool:
    for pi_tilde in _det_endpoints(pts, preserving_by_source, t, max_len, memo, counter, budget):
        for pi_t in _one_step_products(pts, pi_tilde, challenge.label, counter, budget):
            if lift(challenge.target, pi_t):
                return True
    return False
