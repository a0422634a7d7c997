"""The scan-every-transition rule engine, kept as the test oracle of
`ptsskit.engine`.

Every positive premise is matched against every transition derived so far
with the premise's label, and every rule against every term of the universe;
no index is kept.  A rule part is instantiated under the binding that
reaches it: a positive premise's source under the rule's source and the
earlier positive premises, a negative premise's source and the conclusion
target under all of them; an instance with a variable left is a
`RuleInstantiationError`.  Terms are visited in the engine's order, by depth
and then by text, and a transition is used as soon as it is derived, so that
the two report the same target when several pass the depth bound.

The universe is the least set of terms that holds the roots and is closed
under subterms, under the support of every target derived over it with every
negative premise granted, and under the premise sources that derivation
reads, a negative one where it is granted; a read source joins it as it is
read.  `stable_model` iterates the certain/possible pair the same way the
library does, from scratch on every step, with this `derive`.
"""

from typing import Callable, Iterable, Optional

from ptsskit.distributions import evaluate
from ptsskit.engine import (
    DomainBound,
    DomainBoundError,
    RuleInstantiationError,
    SymbolicTransition,
    ThreeValuedModel,
    _check_and_collect,
)
from ptsskit.parser import PTSS, Rule
from ptsskit.terms import Sort, Term, match, render_term, substitute


Read = Optional[Callable[[Term], None]]


def closed_instance(rule: Rule, part: str, rho: dict[str, Term], t: Term) -> Term:
    inst = substitute(rho, t)
    if not inst.closed:
        raise RuleInstantiationError(f"rule {rule.name}: {part} {render_term(inst)} has unbound variables")
    return inst


def solve_positives(
    rule: Rule,
    rho: dict[str, Term],
    by_label: dict[str, list[tuple[Term, Term]]],
    read: Read,
) -> list[dict[str, Term]]:
    solutions = [rho]
    for psrc, label, ptgt in rule.pos_premises:
        grown: list[dict[str, Term]] = []
        for sub in solutions:
            src_pat = closed_instance(rule, "premise source", sub, psrc)
            if read:
                read(src_pat)
            tgt_pat = substitute(sub, ptgt)
            for u, theta in by_label.get(label, ()):  # derived so far
                m1 = match(src_pat, u)
                if m1 is None:
                    continue
                m2 = match(substitute(m1, tgt_pat), theta)
                if m2 is None:
                    continue
                merged = dict(sub)
                merged.update(m1)
                merged.update(m2)
                grown.append(merged)
        solutions = grown
        if not solutions:
            break
    return solutions


def rule_instances(
    rule: Rule,
    universe: list[Term],
    by_label: dict[str, list[tuple[Term, Term]]],
    neg_holds: Callable[[Term, str], bool],
    max_depth: int,
    read: Read,
) -> Iterable[SymbolicTransition]:
    for src in universe:
        rho0 = match(rule.source, src)
        if rho0 is None:
            continue
        for rho in solve_positives(rule, rho0, by_label, read):
            ok = True
            for nsrc, nlabel in rule.neg_premises:
                inst = closed_instance(rule, "negative premise source", rho, nsrc)
                if not neg_holds(inst, nlabel):
                    ok = False
                    break
                if read:
                    read(inst)
            if not ok:
                continue
            target = closed_instance(rule, "conclusion target", rho, rule.target)
            if target.depth > max_depth:
                raise DomainBoundError(target, "conclusion target exceeds max depth")
            yield SymbolicTransition(src, rule.label, target)


def derive(
    rules: tuple[Rule, ...],
    universe: list[Term],
    neg_holds: Callable[[Term, str], bool],
    max_depth: int,
    read: Read = None,
) -> frozenset[SymbolicTransition]:
    trans: set[SymbolicTransition] = set()
    by_label: dict[str, list[tuple[Term, Term]]] = {}
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for tr in rule_instances(rule, universe, by_label, neg_holds, max_depth, read):
                if tr not in trans:
                    trans.add(tr)
                    by_label.setdefault(tr.label, []).append((tr.source, tr.target))
                    changed = True
    return frozenset(trans)


def pt0_neg_holds(rules: tuple[Rule, ...]) -> Callable[[Term, str], bool]:
    def holds(t: Term, a: str) -> bool:
        return not any(r.label == a and match(r.source, t) is not None for r in rules)

    return holds


def holds_against(trs: frozenset[SymbolicTransition]) -> Callable[[Term, str], bool]:
    present = {(tr.source, tr.label) for tr in trs}

    def holds(t: Term, a: str) -> bool:
        return (t, a) not in present

    return holds


def closed_universe(p: PTSS, bound: DomainBound) -> list[Term]:
    universe: set[Term] = set()
    for root in bound.roots:
        if not root.closed or root.sort is not Sort.STATE:
            raise ValueError(f"root must be a closed state term: {render_term(root)}")
        _check_and_collect(root, universe, bound)
    while True:
        ordered = sorted(universe, key=lambda u: (u.depth, render_term(u)))  # the engine's order of sources
        before = len(universe)
        trs = derive(p.rules, ordered, lambda t, a: True, bound.max_depth, lambda t: _check_and_collect(t, universe, bound))
        for tr in trs:
            for s in evaluate(tr.target).support:
                _check_and_collect(s, universe, bound)
        if len(universe) == before:
            return sorted(universe, key=render_term)


def stable_model(p: PTSS, bound: DomainBound) -> ThreeValuedModel:
    universe = closed_universe(p, bound)
    ct = derive(p.rules, universe, pt0_neg_holds(p.rules), bound.max_depth)
    pt = derive(p.rules, universe, lambda t, a: True, bound.max_depth)
    history = [(ct, pt)]
    iterations = 1
    converged = False
    while iterations < bound.max_iterations:
        ct_next = derive(p.rules, universe, holds_against(pt), bound.max_depth)
        pt_next = derive(p.rules, universe, holds_against(ct), bound.max_depth)
        iterations += 1
        history.append((ct_next, pt_next))
        if ct_next == ct and pt_next == pt:
            converged = True
            break
        ct, pt = ct_next, pt_next
    return ThreeValuedModel(ct, pt, iterations, converged, tuple(history))
