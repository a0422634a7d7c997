import random
from fractions import Fraction
from itertools import product

import pytest

from ptsskit.distributions import Distribution, EvalError, evaluate
from ptsskit.terms import Apply, Dirac, lift_symbol, render_term
from tests.conftest import state_op
from tests.reference_schedulers import mass


def test_eval_dirac(t):
    assert evaluate(t("delta(0)")) == Distribution.dirac(t("0"))


def test_eval_convex(t):
    d = evaluate(t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}"))
    assert dict(d.items()) == {t("0"): Fraction(1, 2), t("a.delta(0)"): Fraction(1, 2)}
    assert mass(d, d.support) == 1


def test_eval_lifted_prefix_is_point_mass(t):
    # the prefix operator has no state-sorted argument, so the empty product
    # applies and the result is a point mass on the syntactic argument
    for theta_text in ["delta(0)", "oplus{1/3:delta(0),2/3:delta(0)}", "^0"]:
        theta = t(theta_text)
        d = evaluate(t(f"^a.{theta_text}"))
        pre_a = theta  # the lifted prefix keeps theta as-is inside the state term
        assert len(d.items()) == 1
        (term, p), = d.items()
        assert p == 1
        assert render_term(term) == f"a.{theta_text.replace(' ', '')}"
        assert pre_a is theta


def test_eval_lifted_constant(t):
    assert evaluate(t("^0")) == Distribution.dirac(t("0"))


def test_eval_lifted_plus_products(t):
    theta1 = t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}")
    d = evaluate(Apply(t("^+(delta(0),delta(0))").symbol, (theta1, t("delta(0)"))))
    assert dict(d.items()) == {t("+(0,0)"): Fraction(1, 2), t("+(a.delta(0),0)"): Fraction(1, 2)}
    assert mass(d, d.support) == 1


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
    assert mass(d, d.support) == 1


def test_eval_open_term_rejected(t):
    with pytest.raises(EvalError):
        evaluate(t("mu"))
    with pytest.raises(EvalError):
        evaluate(Dirac(t("x")))
    with pytest.raises(EvalError, match=r"^cannot evaluate open term oplus\{1/2:mu,1/2:\^\+\(delta\(0\),nu\)\}$"):
        evaluate(t("oplus{1/2:mu,1/2:^+(delta(0),nu)}"))  # the whole term: it is checked once, at entry


def test_eval_refuses_a_state_term_and_an_open_lifted_prefix(t):
    with pytest.raises(EvalError, match="^0 is not a distribution operator$"):
        evaluate(t("0"))
    with pytest.raises(EvalError, match=r"^cannot evaluate open term \^a\.mu$"):
        evaluate(t("^a.mu"))


def test_mass(t):
    d = evaluate(t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}"))
    assert mass(d, [t("0")]) == Fraction(1, 2)
    assert mass(d, []) == 0
    assert mass(d, [t("0"), t("a.delta(0)")]) == 1
    assert mass(d, [t("b.delta(0)")]) == 0


# an oplus term is the convex combination of its branches' distributions

def test_convex_combine_identity(t):
    assert evaluate(t("oplus{1:delta(0)}")) == evaluate(t("delta(0)"))


def test_convex_combine_merges(t):
    assert evaluate(t("oplus{1/2:delta(0),1/2:delta(0)}")) == Distribution.dirac(t("0"))


def test_convex_combine_pi1prime(t):
    # the even two-point split used throughout the corpus automata
    d = evaluate(t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}"))
    assert d.items() == ((t("0"), Fraction(1, 2)), (t("a.delta(0)"), Fraction(1, 2)))


def test_convex_combine_commutative_and_flattens(t):
    left = evaluate(t("oplus{1/3:delta(0),2/3:delta(a.delta(0))}"))
    right = evaluate(t("oplus{2/3:delta(a.delta(0)),1/3:delta(0)}"))
    assert left == right
    nested = evaluate(t("oplus{1/2:oplus{2/3:delta(0),1/3:delta(a.delta(0))},1/2:delta(a.delta(0))}"))
    assert nested == left


def test_zero_mass_never_stored(t):
    d = Distribution([(t("0"), Fraction(0)), (t("a.delta(0)"), Fraction(1))])
    assert d.support == (t("a.delta(0)"),)


@pytest.mark.parametrize("weights, message", [
    pytest.param((Fraction(1, 3),), "distribution mass is 1/3, expected 1", id="one-third"),
    pytest.param((), "distribution mass is 0, expected 1", id="empty"),
    pytest.param((Fraction(0),), "distribution mass is 0, expected 1", id="zero"),
    pytest.param((Fraction(2, 3), Fraction(2, 3)), "total mass exceeds 1", id="two-thirds-twice"),
    pytest.param((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), "total mass exceeds 1", id="over-by-1/30"),
])
def test_a_distribution_of_mass_other_than_1_is_refused(t, weights, message):
    states = [t("0"), t("a.delta(0)"), t("b.delta(0)")]
    with pytest.raises(EvalError, match=f"^{message}$"):
        Distribution(zip(states, weights))


def test_eval_total_mass_one_randomized(sig, t):
    # random closed lifted applications keep total mass 1
    rng = random.Random(20240811)
    leaves = [t("delta(0)"), t("^0"), t("oplus{1/2:delta(0),1/2:delta(b.delta(0))}")]

    def rand_dist(depth):
        if depth == 0:
            return rng.choice(leaves)
        kind = rng.randrange(3)
        if kind == 0:
            return Apply(lift_symbol(state_op(sig, f"{rng.choice(sig.actions)}.")), (rand_dist(depth - 1),))
        if kind == 1:
            return Apply(lift_symbol(state_op(sig, "+")), (rand_dist(depth - 1), rand_dist(depth - 1)))
        return rng.choice(leaves)

    for _ in range(100):
        theta = rand_dist(3)
        d = evaluate(theta)
        assert mass(d, d.support) == 1
