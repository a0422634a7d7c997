import random
from fractions import Fraction
from itertools import product

import pytest

from ptsskit.distributions import Distribution, EvalError, convex_combine, evaluate
from ptsskit.terms import Apply, Dirac, render_term
from tests.reference_schedulers import mass


def test_eval_dirac(t):
    assert evaluate(t("delta(0)")) == Distribution.dirac(t("0"))


def test_eval_convex(t):
    d = evaluate(t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}"))
    assert d.get(t("0")) == Fraction(1, 2)
    assert d.get(t("a.delta(0)")) == Fraction(1, 2)
    assert d.total_mass == 1


def test_eval_lifted_prefix_is_point_mass(t):
    # the prefix operator has no state-sorted argument, so the empty product
    # applies and the result is a point mass on the syntactic argument
    for theta_text in ["delta(0)", "oplus{1/3:delta(0),2/3:delta(0)}", "^0"]:
        theta = t(theta_text)
        d = evaluate(t(f"^a.{theta_text}"))
        pre_a = theta  # the lifted prefix keeps theta as-is inside the state term
        assert len(d) == 1
        (term, p), = d.items()
        assert p == 1
        assert render_term(term) == f"a.{theta_text.replace(' ', '')}"
        assert pre_a is theta


def test_eval_lifted_constant(t):
    assert evaluate(t("^0")) == Distribution.dirac(t("0"))


def test_eval_lifted_plus_products(t):
    theta1 = t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}")
    d = evaluate(Apply(t("^+(delta(0),delta(0))").symbol, (theta1, t("delta(0)"))))
    assert d.get(t("+(0,0)")) == Fraction(1, 2)
    assert d.get(t("+(a.delta(0),0)")) == Fraction(1, 2)
    assert d.total_mass == 1


def test_eval_lifted_plus_against_bruteforce(t):
    # brute force: enumerate every candidate pair from the argument supports
    theta1 = evaluate(t("oplus{1/3:delta(0),2/3:delta(b.delta(0))}"))
    theta2 = evaluate(t("oplus{1/4:delta(0),3/4:delta(a.delta(0))}"))
    lifted = t("^+(oplus{1/3:delta(0),2/3:delta(b.delta(0))},oplus{1/4:delta(0),3/4:delta(a.delta(0))})")
    d = evaluate(lifted)
    plus = lifted.symbol.origin
    expected = {}
    for (u, p), (v, q) in product(theta1.items(), theta2.items()):
        expected[Apply(plus, (u, v))] = p * q
    assert dict(d.items()) == expected
    assert d.total_mass == 1


def test_eval_open_term_rejected(t):
    with pytest.raises(EvalError):
        evaluate(t("mu"))
    with pytest.raises(EvalError):
        evaluate(Dirac(t("x")))
    with pytest.raises(EvalError, match="open term mu$"):  # the first open branch
        evaluate(t("oplus{1/2:mu,1/2:^+(delta(0),nu)}"))


def test_mass(t):
    d = evaluate(t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}"))
    assert mass(d, [t("0")]) == Fraction(1, 2)
    assert mass(d, []) == 0
    assert mass(d, [t("0"), t("a.delta(0)")]) == 1
    assert mass(d, [t("b.delta(0)")]) == 0


def test_convex_combine_identity(t):
    d = evaluate(t("delta(0)"))
    assert convex_combine([(Fraction(1), d)]) == d


def test_convex_combine_merges(t):
    d0 = Distribution.dirac(t("0"))
    out = convex_combine([(Fraction(1, 2), d0), (Fraction(1, 2), d0)])
    assert out == d0


def test_convex_combine_pi1prime(t):
    # the even two-point split used throughout the corpus automata
    d = convex_combine(
        [(Fraction(1, 2), Distribution.dirac(t("0"))), (Fraction(1, 2), Distribution.dirac(t("a.delta(0)")))]
    )
    assert d.get(t("0")) == Fraction(1, 2)
    assert d.get(t("a.delta(0)")) == Fraction(1, 2)


def test_convex_combine_subdistribution(t):
    d = convex_combine([(Fraction(1, 4), Distribution.dirac(t("0")))])
    assert d.total_mass == Fraction(1, 4)


def test_convex_combine_rejects_bad_weights(t):
    d = Distribution.dirac(t("0"))
    with pytest.raises(EvalError):
        convex_combine([(Fraction(0), d)])
    with pytest.raises(EvalError):
        convex_combine([(Fraction(3, 4), d), (Fraction(1, 2), d)])


def test_convex_combine_commutative_and_flattens(t):
    da = Distribution.dirac(t("0"))
    db = Distribution.dirac(t("a.delta(0)"))
    left = convex_combine([(Fraction(1, 3), da), (Fraction(2, 3), db)])
    right = convex_combine([(Fraction(2, 3), db), (Fraction(1, 3), da)])
    assert left == right
    nested = convex_combine(
        [(Fraction(1, 2), convex_combine([(Fraction(2, 3), da), (Fraction(1, 3), db)])), (Fraction(1, 2), db)]
    )
    flat = convex_combine([(Fraction(1, 3), da), (Fraction(2, 3), db)])
    assert nested == flat


def test_zero_mass_never_stored(t):
    d = Distribution([(t("0"), Fraction(0)), (t("a.delta(0)"), Fraction(1))])
    assert d.support == (t("a.delta(0)"),)


def test_eval_total_mass_one_randomized(sig, t):
    # random closed lifted applications keep total mass 1
    rng = random.Random(20240811)
    leaves = [t("delta(0)"), t("^0"), t("oplus{1/2:delta(0),1/2:delta(b.delta(0))}")]

    def rand_dist(depth):
        if depth == 0:
            return rng.choice(leaves)
        kind = rng.randrange(3)
        if kind == 0:
            return Apply(sig.lifted(sig.prefix(rng.choice(sig.actions))), (rand_dist(depth - 1),))
        if kind == 1:
            return Apply(sig.lifted(sig.state_op("+")), (rand_dist(depth - 1), rand_dist(depth - 1)))
        return rng.choice(leaves)

    for _ in range(100):
        theta = rand_dist(3)
        assert evaluate(theta).total_mass == 1
