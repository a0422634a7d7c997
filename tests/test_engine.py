from collections import Counter

import pytest

from ptsskit import engine
from ptsskit.cli import main
from ptsskit.distributions import Distribution
from ptsskit.engine import (
    DomainBound,
    _check_and_collect,
    DomainBoundError,
    IncompleteError,
    RuleInstantiationError,
    SymbolicTransition,
    export_pts,
    is_complete,
    load_pts,
    reachable_pts,
    stable_model,
)
from ptsskit.parser import ParseFailure, parse_spec, parse_term
from ptsskit.terms import render_term
from tests import reference_engine as reference
from tests.conftest import CORPUS
from tests.test_golden_pts import SPEC_ROOTS, chain_root

F_SPEC = """\
ptss incomplete_f
actions a, b, tau
op f : -> s
rule ra: f -/b-> |- f --a-> ^f
rule rb: f -/a-> |- f --b-> ^f
"""

G_SPEC = """\
ptss delayed_g
actions a, b, tau
op g : -> s
rule r: g -/a-> |- g --b-> ^g
"""


def bound(sig, *roots, **kw):
    terms = tuple(parse_term(r, sig) for r in roots)
    return DomainBound(terms, **kw)


def test_running_axiom_direct(running, sig, t):
    model = stable_model(running, bound(sig, "a.delta(0)"))
    assert model.converged and model.iterations <= 2
    expected = SymbolicTransition(t("a.delta(0)"), "a", t("delta(0)"))
    assert expected in model.ct
    assert model.ct == model.pt


def test_running_is_complete(running, sig):
    complete, model = is_complete(running, bound(sig, "+(a.delta(0),b.delta(0))"))
    assert complete
    # the sum offers both branches
    labels = {(render_term(tr.source), tr.label) for tr in model.ct}
    assert ("+(a.delta(0),b.delta(0))", "a") in labels
    assert ("+(a.delta(0),b.delta(0))", "b") in labels


def test_incomplete_f_fixpoint(t):
    spec = parse_spec(F_SPEC)
    sig = spec.signature
    f = parse_term("f", sig)
    fhat = parse_term("^f", sig)
    model = stable_model(spec, DomainBound((f,)))
    assert model.converged
    assert model.ct == frozenset()
    assert model.pt == frozenset(
        {SymbolicTransition(f, "a", fhat), SymbolicTransition(f, "b", fhat)}
    )
    complete, _ = is_complete(spec, DomainBound((f,)))
    assert not complete


def test_delayed_g_converges_complete():
    spec = parse_spec(G_SPEC)
    g = parse_term("g", spec.signature)
    ghat = parse_term("^g", spec.signature)
    model = stable_model(spec, DomainBound((g,)))
    assert model.converged and model.iterations == 2
    assert model.ct == model.pt == frozenset({SymbolicTransition(g, "b", ghat)})


def test_empty_rule_set_is_complete():
    spec = parse_spec("ptss empty\nactions tau\nop c : -> s\n")
    complete, model = is_complete(spec, DomainBound((parse_term("c", spec.signature),)))
    assert complete and model.ct == frozenset()


def test_monotone_information_growth(running, sig):
    model = stable_model(running, bound(sig, "+(a.delta(0),tau.delta(0))"))
    for (ct_a, pt_a), (ct_b, pt_b) in zip(model.history, model.history[1:]):
        assert ct_a <= ct_b
        assert pt_a >= pt_b
        assert ct_a <= pt_a


def test_stability_rerun_is_noop(running, sig):
    b = bound(sig, "a.delta(0)")
    m1 = stable_model(running, b)
    m2 = stable_model(running, b)
    assert m1.ct == m2.ct and m1.pt == m2.pt


def test_reachable_pts_simple(running, sig, t):
    pts = reachable_pts(running, bound(sig, "a.delta(0)"))
    assert set(pts.states) == {t("a.delta(0)"), t("0")}
    assert len(pts.transitions) == 1
    tr = pts.transitions[0]
    assert tr.label == "a" and tr.target == Distribution.dirac(t("0"))


def test_reachable_pts_merges_equal_targets(sig):
    # two symbolic targets with the same semantics collapse to one transition
    src = (
        "ptss m\nactions a, tau\nop 0 : -> s\nop pre<A> : d -> s\n"
        "rule r1: a.mu --a-> mu\n"
        "rule r2: x --a-> mu |- a.delta(x) --tau-> ^0\n"
        "rule r3: x --a-> mu |- a.delta(x) --tau-> delta(0)\n"
    )
    spec = parse_spec(src)
    root = parse_term("a.delta(a.delta(0))", spec.signature)
    pts = reachable_pts(spec, DomainBound((root,)))
    taus = [tr for tr in pts.transitions if tr.label == "tau"]
    assert len(taus) == 1  # ^0 and delta(0) evaluate equally


def test_incomplete_has_no_pts():
    spec = parse_spec(F_SPEC)
    with pytest.raises(IncompleteError):
        reachable_pts(spec, DomainBound((parse_term("f", spec.signature),)))


def test_depth_overflow_reported(running, sig):
    deep = "a.delta(" * 5 + "0" + ")" * 5
    with pytest.raises(DomainBoundError):
        stable_model(running, bound(sig, deep, max_depth=4))


def test_max_states_overflow(running, sig):
    with pytest.raises(DomainBoundError):
        stable_model(running, bound(sig, "+(a.delta(0),b.delta(0))", max_states=2))


def test_unbound_target_variable_rejected():
    spec = parse_spec("ptss u\nactions tau\nop c : -> s\nrule r: c --tau-> mu\n")
    with pytest.raises(RuleInstantiationError):
        stable_model(spec, DomainBound((parse_term("c", spec.signature),)))


def test_lookahead_premise_rejected():
    # the second premise's source variable is bound by nothing: it would read
    # every b-step of the domain, so the rule is refused where it is reached
    src = (
        "ptss la\nactions a, b, tau\nop c : -> s\nop f : s -> s\n"
        "rule ax: c --a-> ^c\n"
        "rule r: x --a-> mu, y --b-> nu |- f(x) --b-> mu\n"
    )
    spec = parse_spec(src)
    with pytest.raises(RuleInstantiationError, match="^rule r: premise source y has unbound variables$"):
        stable_model(spec, DomainBound((parse_term("f(c)", spec.signature),)))
    assert stable_model(spec, DomainBound((parse_term("c", spec.signature),))).converged  # r is not reached


def test_negative_premise_unbound_var_rejected():
    src = "ptss nn\nactions a, tau\nop c : -> s\nrule r: z -/a-> |- c --a-> ^c\n"
    spec = parse_spec(src)
    with pytest.raises(RuleInstantiationError):
        stable_model(spec, DomainBound((parse_term("c", spec.signature),)))


def test_positive_specs_complete_randomized():
    # negative-premise-free specs always converge with CT = PT
    import random

    rng = random.Random(7)
    for _ in range(25):
        n_ops = rng.randint(1, 3)
        lines = ["ptss gen", "actions a, b, tau", "op 0 : -> s", "op pre<A> : d -> s"]
        for i in range(n_ops):
            lines.append(f"op k{i} : s -> s")
        rules = ["rule ax: <A>.mu --<A>-> mu"]
        for i in range(n_ops):
            lab = rng.choice(["a", "b", "tau"])
            tgt = rng.choice(["mu", f"^k{i}(mu)", "delta(0)", "^0"])
            rules.append(f"rule r{i}: x --{lab}-> mu |- k{i}(x) --{lab}-> {tgt}")
        spec = parse_spec("\n".join(lines + rules) + "\n")
        root = parse_term(f"k0({rng.choice(['a.delta(0)', 'b.delta(0)', 'tau.delta(0)'])})", spec.signature)
        model = stable_model(spec, DomainBound((root,), max_depth=10))
        assert model.converged
        assert model.ct == model.pt


def test_export_load_roundtrip(running, sig):
    pts = reachable_pts(running, bound(sig, "+(a.delta(0),b.delta(0))"))
    text = export_pts(pts)
    again = load_pts(text)
    assert len(again.states) == len(pts.states)
    assert len(again.transitions) == len(pts.transitions)
    assert export_pts(again) == text  # byte-identical golden form


def test_export_deterministic(running, sig):
    b = bound(sig, "+(a.delta(0),b.delta(0))")
    assert export_pts(reachable_pts(running, b)) == export_pts(reachable_pts(running, b))


def test_load_pts_validates():
    with pytest.raises(ParseFailure):
        load_pts("state s0\ntrans s0 --a-> { s1: 1 }\n")  # s1 undeclared
    with pytest.raises(ParseFailure):
        load_pts("state s0\ntrans s0 --a-> { s0: 1/2 }\n")  # mass below one


class _CountingSet(set):
    """A universe that counts how often each term is looked up in it."""

    def __init__(self):
        super().__init__()
        self.visits = Counter()

    def __contains__(self, term):
        self.visits[term] += 1
        return super().__contains__(term)


def test_universe_walk_stops_at_collected_terms(sig):
    n = 400
    root = parse_term("a.delta(" * n + "0" + ")" * n, sig)
    universe = _CountingSet()
    b = DomainBound((root,), max_depth=5000)
    # as the universe closure does: the root, then each transition target
    _check_and_collect(root, universe, b)
    for state in list(universe):
        _check_and_collect(state, universe, b)
    assert len(universe) == n + 1
    assert max(universe.visits.values()) <= 2  # a full walk per call: n + 1
    assert sum(universe.visits.values()) <= 3 * (n + 1)


def test_universe_walk_checks_bounds_on_new_terms(sig):
    root = parse_term("+(a.delta(b.delta(0)),b.delta(0))", sig)
    with pytest.raises(DomainBoundError, match="max depth: \\+"):
        _check_and_collect(root, set(), DomainBound((root,), max_depth=5))
    universe: set = set()
    _check_and_collect(root, universe, DomainBound((root,)))
    deeper = parse_term("a.delta(+(a.delta(b.delta(0)),b.delta(0)))", sig)
    with pytest.raises(DomainBoundError, match="max states: a.delta"):
        _check_and_collect(deeper, universe, DomainBound((root,), max_states=len(universe)))


# derivations per job, counted at `engine._derive`: the stable model reuses
# the domain closure's derivation, which is already the model of a spec
# without negative premises
DERIVES_BEFORE = {"cx236l.ptss": 9, "delayed_g.ptss": 5, "incomplete_f.ptss": 5}


@pytest.fixture
def derive_calls(monkeypatch):
    calls = []
    derive = engine._derive

    def spy(*args, **kwargs):
        calls.append(None)
        return derive(*args, **kwargs)

    monkeypatch.setattr(engine, "_derive", spy)
    return calls


def test_a_chains_job_derives_once(derive_calls, capsys):
    assert main(["pts", str(CORPUS / "running.ptss"), "--root", chain_root(14), "--max-depth", "64"]) == 0
    assert len(derive_calls) == 1
    assert "state " in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(DERIVES_BEFORE))
def test_negative_premise_specs_derive_less_often(derive_calls, name):
    spec = parse_spec((CORPUS / name).read_text())
    model = stable_model(spec, bound(spec.signature, *SPEC_ROOTS[name], max_depth=10))
    assert model.converged
    assert len(derive_calls) < DERIVES_BEFORE[name]


LATE_SPEC = """\
ptss late
actions a, b, tau
op 0 : -> s
op g : s -> s
op h : s -> s
rule enter: g(x) --a-> delta(h(x))
rule step: h(x) --b-> delta(x)
rule ahead: h(x) --b-> mu |- g(x) --b-> mu
"""


def test_a_source_gains_a_step_from_a_term_that_enters_the_domain_later():
    # g(0) reads the b-steps of h(0) in the closure's first round, before
    # h(0) is in the domain; the second round must revisit it
    spec = parse_spec(LATE_SPEC)
    b = bound(spec.signature, "g(0)")
    model = stable_model(spec, b)
    assert sorted(map(repr, model.ct)) == ["g(0) --a-> delta(h(0))", "g(0) --b-> delta(0)", "h(0) --b-> delta(0)"]
    assert model.history == reference.stable_model(spec, b).history
