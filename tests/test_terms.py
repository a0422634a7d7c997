from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import (
    Apply,
    Convex,
    Dirac,
    DistVar,
    FunctionSymbol,
    Signature,
    Sort,
    SortError,
    StateVar,
    build_signature,
    lift_symbol,
    match,
    prefix_symbol,
    render_term,
    substitute,
    validate_signature,
)
from tests.conftest import CORPUS, state_op


def test_validate_running_signature(sig):
    assert validate_signature(sig) == []


def test_signature_holds_one_lifting_per_state_operator(sig):
    # a signature builds its own liftings, so validate_signature has none to check
    ops = (state_op(sig, "0"), state_op(sig, "+"))
    for built in (Signature(("tau", "a"), ops), build_signature(("tau", "a"), list(ops), prefix_family=True), sig):
        assert built.dist_ops == tuple(lift_symbol(f) for f in built.state_ops)
    specs = sorted(CORPUS.glob("*.ptss"))
    assert specs
    for path in specs:
        assert validate_signature(parse_spec(path.read_text()).signature) == [], path.name


def test_validate_duplicate_name():
    f_state = FunctionSymbol("f", (), Sort.STATE)
    sig = build_signature(["tau"], [f_state, FunctionSymbol("f", (Sort.STATE,), Sort.STATE)], False)
    msgs = validate_signature(sig)
    assert any("duplicate name: f" in m for m in msgs)


def test_validate_missing_tau():
    sig = build_signature(["a"], [], False)
    assert any("tau" in m for m in validate_signature(sig))


def test_validate_prefix_operator_of_an_undeclared_action():
    # built by hand: `build_signature` makes prefix operators only for declared actions
    assert validate_signature(Signature(("tau",), (prefix_symbol("a"),))) == [
        "prefix operator a. uses undeclared action a"
    ]


def test_only_state_operators_lift(sig):
    with pytest.raises(SortError, match=r"^only state operators can be lifted, got \^\+$"):
        lift_symbol(lift_symbol(state_op(sig, "+")))


def test_apply_enforces_arity(sig):
    plus = state_op(sig, "+")
    with pytest.raises(SortError):
        Apply(plus, (Apply(state_op(sig, "0"), ()),))


def test_apply_enforces_arg_sorts(sig):
    pre_a = state_op(sig, "a.")
    with pytest.raises(SortError):
        Apply(pre_a, (Apply(state_op(sig, "0"), ()),))  # state arg where dist expected


def test_convex_weight_sum_checked():
    with pytest.raises(SortError, match="sum"):
        Convex((Fraction(1, 2), Fraction(1, 3)), (Dirac(StateVar("x")), Dirac(StateVar("y"))))


def test_dirac_and_oplus_check_the_sorts_of_their_branches(t):
    with pytest.raises(SortError, match=r"^delta takes a state term, got delta\(0\)$"):
        Dirac(t("delta(0)"))
    with pytest.raises(SortError, match="^oplus needs one weight per branch and at least one branch$"):
        Convex((), ())
    with pytest.raises(SortError, match="^oplus branches must be distribution terms, got 0$"):
        Convex((Fraction(1),), (t("0"),))


def test_convex_weight_positive_checked():
    branches = (Dirac(StateVar("x")), Dirac(StateVar("y")))
    for weights in [(Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(3, 2))]:
        with pytest.raises(SortError, match="positive"):
            Convex(weights, branches)


def test_substitute_basic(sig, t):
    target = t("a.mu")
    out = substitute({"mu": t("delta(0)")}, target)
    assert render_term(out) == "a.delta(0)"
    assert substitute({}, target) == target


def test_substitute_unmapped_left_intact(t):
    term = t("+(x,y)")
    out = substitute({"x": t("0")}, term)
    assert out == Apply(term.symbol, (t("0"), StateVar("y")))


def test_substitute_sort_violation(t):
    with pytest.raises(SortError):
        substitute({"x": t("delta(0)")}, StateVar("x"))


def test_substitute_reports_the_first_variable_bound_at_the_wrong_sort(t):
    rho = {"x": t("delta(0)"), "y": t("delta(b.delta(0))")}
    with pytest.raises(SortError, match=r"^state variable x bound to distribution term delta\(0\)$"):
        substitute(rho, t("+(a.delta(+(x,0)),y)"))


def test_substitute_rebuilds_every_node_kind(t):
    rho = {"x": t("b.delta(0)"), "mu": t("delta(0)")}
    out = substitute(rho, t("a.oplus{1/3:delta(+(x,x)),2/3:^+(mu,delta(x))}"))
    assert out is t("a.oplus{1/3:delta(+(b.delta(0),b.delta(0))),2/3:^+(delta(0),delta(b.delta(0)))}")
    deep = t("a.delta(" * 300 + "x" + ")" * 300)
    assert substitute(rho, deep) is t("a.delta(" * 300 + "b.delta(0)" + ")" * 300)


def test_match_basic(sig, t):
    pat = t("+(x,y)")
    subj = t("+(0,a.delta(0))")
    rho = match(pat, subj)
    assert rho == {"x": t("0"), "y": t("a.delta(0)")}


def test_match_fails_across_sorts_and_oplus_weights(t):
    assert match(StateVar("x"), t("delta(0)")) is None and match(DistVar("mu"), t("0")) is None
    pattern = t("oplus{1/2:mu,1/2:nu}")
    assert match(pattern, t("oplus{1/3:delta(0),2/3:delta(a.delta(0))}")) is None
    assert match(pattern, t("oplus{1/2:delta(0),1/2:delta(a.delta(0))}")) == {"mu": t("delta(0)"),
                                                                            "nu": t("delta(a.delta(0))")}


def test_match_mismatch(sig, t):
    assert match(t("a.mu"), t("b.delta(0)")) is None


def subterms(t):
    """All subterms including `t` itself, pre-order."""
    yield t
    if isinstance(t, Apply):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, Dirac):
        yield from subterms(t.inner)
    elif isinstance(t, Convex):
        for a in t.args:
            yield from subterms(a)


def _enumeration_match_oracle(pattern, subject):
    """Try every assignment of subject subterms to pattern variables."""
    from itertools import product

    from ptsskit.terms import variables

    names = sorted(variables(pattern))
    candidates = list(subterms(subject))
    for combo in product(candidates, repeat=len(names)):
        rho = dict(zip(names, combo))
        try:
            if substitute(rho, pattern) == subject:
                return rho
        except SortError:
            continue
    return None


def test_match_repeated_variable_against_oracle(sig, t):
    pat = t("+(x,x)")
    subj = t("+(0,a.delta(0))")
    assert match(pat, subj) is None
    assert _enumeration_match_oracle(pat, subj) is None
    subj2 = t("+(0,0)")
    assert match(pat, subj2) == {"x": t("0")}
    assert _enumeration_match_oracle(pat, subj2) is not None


def test_match_then_substitute_is_identity(sig, t):
    cases = [
        (t("+(x,y)"), t("+(a.delta(0),+(0,0))")),
        (t("a.mu"), t("a.oplus{1/2:delta(0),1/2:delta(0)}")),
        (t("delta(x)"), t("delta(+(0,0))")),
    ]
    for pat, subj in cases:
        rho = match(pat, subj)
        assert rho is not None
        assert substitute(rho, pat) == subj


def test_term_depth(t):
    assert t("0").depth == 1
    assert t("a.delta(0)").depth == 3
    assert t("+(a.delta(0),0)").depth == 4


def test_equal_terms_hash_equal(t):
    a, b = t("+(a.delta(0),0)"), t("+(a.delta(0),0)")
    assert a == b and hash(a) == hash(b)


# -- randomized term machinery ------------------------------------------------

def _term_strategy(sig, closed=True, max_depth=3):
    zero = Apply(state_op(sig, "0"), ())

    def extend(children):
        state = children.filter(lambda x: x.sort is Sort.STATE)
        dist = children.filter(lambda x: x.sort is Sort.DIST)
        plus = state_op(sig, "+")
        strats = [
            st.builds(lambda l, r: Apply(plus, (l, r)), state, state),
            st.builds(Dirac, state),
            st.builds(lambda d, a: Apply(state_op(sig, f"{a}."), (d,)), dist, st.sampled_from(sig.actions)),
            st.builds(
                lambda d1, d2: Convex((Fraction(1, 3), Fraction(2, 3)), (d1, d2)), dist, dist
            ),
            st.builds(
                lambda d1, d2: Apply(lift_symbol(plus), (d1, d2)), dist, dist
            ),
        ]
        return st.one_of(*strats)

    leaves = [st.just(zero), st.just(Dirac(zero))]
    if not closed:
        leaves += [st.just(StateVar("x")), st.just(DistVar("mu"))]
    return st.recursive(st.one_of(*leaves), extend, max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitution_composes(sig, data):
    term = data.draw(_term_strategy(sig, closed=False))
    zero = Apply(state_op(sig, "0"), ())
    rho_inner = {"x": StateVar("y")}
    rho_outer = {"y": zero, "mu": Dirac(zero)}
    composed = {"x": zero, "y": zero, "mu": Dirac(zero)}
    assert substitute(rho_outer, substitute(rho_inner, term)) == substitute(composed, term)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_preserves_sort(sig, data):
    term = data.draw(_term_strategy(sig, closed=False))
    zero = Apply(state_op(sig, "0"), ())
    out = substitute({"x": zero, "mu": Dirac(zero)}, term)
    assert out.sort is term.sort
    assert out.closed


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_render_parse_roundtrip(sig, data):
    term = data.draw(_term_strategy(sig, closed=True))
    assert parse_term(render_term(term), sig, term.sort) == term
