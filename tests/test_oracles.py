"""Independent brute-force oracles for the two semantic engines.

The distribution oracle recomputes the algebra pointwise over enumerated
candidate terms; the stable-model oracle enumerates proof trees stratified by
depth instead of running the premise-driven fixpoint.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ptsskit.distributions import evaluate
from ptsskit.engine import DomainBound, load_pts, reachable_pts, stable_model
from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import Apply, Convex, Dirac, Sort, lift_symbol, match, render_term, substitute
from tests.conftest import CORPUS, state_op


# -- distribution evaluation oracle -----------------------------------------------

def oracle_eval(theta):
    """Pointwise reading of the semantics: enumerate candidate state terms and
    compute their probability directly from the defining clauses."""
    if isinstance(theta, Dirac):
        return {theta.inner: Fraction(1)}
    if isinstance(theta, Convex):
        out = {}
        for w, arg in zip(theta.weights, theta.args):
            for t, p in oracle_eval(arg).items():
                out[t] = out.get(t, Fraction(0)) + w * p
        return out
    if isinstance(theta, Apply) and theta.symbol.is_lifted:
        origin = theta.symbol.origin
        state_pos = [i for i, s in enumerate(origin.arg_sorts) if s is Sort.STATE]
        sub = {i: oracle_eval(theta.args[i]) for i in state_pos}
        # candidates: every combination of support elements at state positions
        out = {}
        for combo in product(*(sorted(sub[i], key=render_term) for i in state_pos)):
            args = list(theta.args)
            prob = Fraction(1)
            for i, xi in zip(state_pos, combo):
                args[i] = xi
                prob *= sub[i][xi]
            candidate = Apply(origin, tuple(args))
            if prob:
                out[candidate] = out.get(candidate, Fraction(0)) + prob
        return out
    raise AssertionError(f"oracle cannot evaluate {theta!r}")


def test_eval_agrees_with_pointwise_oracle(sig):
    rng = random.Random(8080)
    leaves = [
        parse_term(t, sig)
        for t in ("delta(0)", "^0", "oplus{1/3:delta(0),2/3:delta(b.delta(0))}")
    ]
    plus = state_op(sig, "+")

    def rand_dist(depth):
        if depth == 0:
            return rng.choice(leaves)
        kind = rng.randrange(4)
        if kind == 0:
            return Apply(lift_symbol(state_op(sig, f"{rng.choice(sig.actions)}.")), (rand_dist(depth - 1),))
        if kind == 1:
            return Apply(lift_symbol(plus), (rand_dist(depth - 1), rand_dist(depth - 1)))
        if kind == 2:
            return Convex(
                (Fraction(1, 4), Fraction(3, 4)), (rand_dist(depth - 1), rand_dist(depth - 1))
            )
        return rng.choice(leaves)

    for _ in range(120):
        theta = rand_dist(rng.randint(1, 3))
        expected = {t: p for t, p in oracle_eval(theta).items() if p}
        assert dict(evaluate(theta).items()) == expected


# -- stable model oracle ------------------------------------------------------------

def _proofs_by_depth(spec, universe, neg_holds, max_proof_depth):
    """Transitions provable by a proof tree of depth <= max_proof_depth, with
    every negative leaf granted by `neg_holds`."""
    layers = [set()]
    for _ in range(max_proof_depth):
        previous = layers[-1]
        current = set(previous)
        for rule in spec.rules:
            for src in universe:
                rho0 = match(rule.source, src)
                if rho0 is None:
                    continue
                assignments = [rho0]
                ok_rule = True
                for psrc, plabel, ptgt in rule.pos_premises:
                    grown = []
                    for rho in assignments:
                        for (u, a, theta) in previous:
                            if a != plabel:
                                continue
                            m1 = match(substitute(rho, psrc), u)
                            if m1 is None:
                                continue
                            m2 = match(substitute({**rho, **m1}, ptgt), theta)
                            if m2 is None:
                                continue
                            grown.append({**rho, **m1, **m2})
                    assignments = grown
                    if not assignments:
                        ok_rule = False
                        break
                if not ok_rule:
                    continue
                for rho in assignments:
                    if all(
                        neg_holds(substitute(rho, nsrc), nlabel)
                        for nsrc, nlabel in rule.neg_premises
                    ):
                        target = substitute(rho, rule.target)
                        current.add((src, rule.label, target))
        layers.append(current)
        if current == previous:
            break
    return layers[-1]


def oracle_stable_model(spec, universe, max_outer=8, max_proof_depth=5):
    """Depth-stratified proof enumeration iterated against the opposite side."""

    def against(trs):
        keys = {(s, a) for s, a, _ in trs}
        return lambda t, a: (t, a) not in keys

    def pt0(t, a):
        return not any(
            r.label == a and match(r.source, t) is not None for r in spec.rules
        )

    ct = _proofs_by_depth(spec, universe, pt0, max_proof_depth)
    pt = _proofs_by_depth(spec, universe, lambda t, a: True, max_proof_depth)
    for _ in range(max_outer):
        ct2 = _proofs_by_depth(spec, universe, against(pt), max_proof_depth)
        pt2 = _proofs_by_depth(spec, universe, against(ct), max_proof_depth)
        if ct2 == ct and pt2 == pt:
            break
        ct, pt = ct2, pt2
    return ct, pt


ORACLE_CASES = [
    ("running.ptss", ("+(a.delta(0),b.delta(0))", "a.delta(tau.delta(0))")),
    ("incomplete_f.ptss", ("f",)),
    ("delayed_g.ptss", ("g",)),
    ("cx2.ptss", ("f(a.delta(b.delta(0)))",)),
    ("cx23.ptss", ("f(a.delta(tau.delta(b.delta(0))))",)),
    ("cx236l.ptss", ("f(a.delta(tau.delta(b.delta(0))))",)),
    ("weak_trans_axioms.ptss", ("s0",)),
]


@pytest.mark.parametrize("name,root_texts", ORACLE_CASES)
def test_stable_model_agrees_with_proof_enumeration(name, root_texts):
    from ptsskit.engine import _closed_universe

    spec = parse_spec((CORPUS / name).read_text())
    roots = tuple(parse_term(t, spec.signature) for t in root_texts)
    bound = DomainBound(roots, max_depth=10)
    model = stable_model(spec, bound)
    assert model.converged

    # same finite domain for both; only the proof search is independent
    universe = sorted(_closed_universe(spec, bound)[0], key=render_term)
    assert len(universe) <= 30
    ct, pt = oracle_stable_model(spec, universe)
    assert {(t.source, t.label, t.target) for t in model.ct} == ct, name
    assert {(t.source, t.label, t.target) for t in model.pt} == pt, name


def test_weak_trans_axioms_isomorphic_to_direct_pts():
    spec = parse_spec((CORPUS / "weak_trans_axioms.ptss").read_text())
    root = parse_term("s0", spec.signature)
    built = reachable_pts(spec, DomainBound((root,)))
    loaded = load_pts((CORPUS / "weak_trans.pts").read_text())
    assert len(built.states) == 10
    assert len(built.transitions) == 7
    assert set(built.states) == set(loaded.states)
    assert set(built.transitions) == set(loaded.transitions)
