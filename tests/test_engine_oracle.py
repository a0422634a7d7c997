"""The indexed rule engine against the scan-every-transition oracle in
`tests/reference_engine.py`, and the invariants of hash-consed terms."""

import copy
import gc
import pickle
import random
from collections import Counter

import pytest

from ptsskit.cli import main
from ptsskit.engine import (
    DomainBound,
    DomainBoundError,
    RuleInstantiationError,
    load_pts,
    opaque_state,
    stable_model,
)
from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import Apply, Convex, Dirac, substitute
from tests import reference_engine as reference
from tests.conftest import RUNNING_SPEC, state_op
from tests.genspecs import LEAF_TERMS, random_format_safe_spec, random_grouped_spec, random_negative_free_spec
from tests.test_golden_pts import CORPUS, SPEC_ROOTS, chain_root


def _outcome(solve, spec, bound):
    """Every (CT, PT) step of the iteration, or the error that stopped it."""
    try:
        model = solve(spec, bound)
    except (DomainBoundError, RuleInstantiationError) as exc:
        return type(exc).__name__, str(exc)
    return model.history, model.iterations, model.converged


def _agree(spec, roots, **kw):
    bound = DomainBound(tuple(roots), **kw)
    got = _outcome(stable_model, spec, bound)
    assert got == _outcome(reference.stable_model, spec, bound)
    return got


@pytest.mark.parametrize("name", sorted(SPEC_ROOTS))
@pytest.mark.parametrize("max_depth", [8, 10])
def test_corpus_specs_agree_with_the_oracle_at_every_iteration(name, max_depth):
    spec = parse_spec((CORPUS / name).read_text())
    roots = [parse_term(r, spec.signature) for r in SPEC_ROOTS[name]]
    _agree(spec, roots, max_depth=max_depth)


def test_chain_sums_agree_with_the_oracle():
    spec = parse_spec(RUNNING_SPEC)
    for n in range(1, 9):
        history, _, converged = _agree(spec, [parse_term(chain_root(n), spec.signature)], max_depth=64)
        assert converged and history[-1][0]


def test_generated_specs_agree_with_the_oracle():
    rng = random.Random(4242)
    outcomes = set()
    for _ in range(30):
        spec, roots = random_negative_free_spec(rng)
        outcomes.add(type(_agree(spec, roots, max_depth=12, max_states=256)[0]))
    for _ in range(30):
        spec = random_format_safe_spec(rng)
        roots = [parse_term(f"k0({rng.choice(LEAF_TERMS)})", spec.signature) for _ in range(2)]
        outcomes.add(type(_agree(spec, roots, max_depth=8, max_states=64)[0]))
    assert tuple in outcomes  # at least one spec reached a model


def test_rules_sharing_a_source_pattern_agree_with_the_oracle():
    # every rule of a spec but the base ones has the source k0(x), which a
    # pass matches once a term: the rules differ in how their premises are
    # read (a variable source or one the rule builds, which may lie outside
    # the domain, a target variable bound or matched), in negative premises,
    # in targets built or read, and some cannot be instantiated, where the
    # first error must be the oracle's
    rng = random.Random(1414)
    outcomes = Counter()
    for _ in range(60):
        spec, roots = random_grouped_spec(rng)
        got = _agree(spec, roots, max_depth=8, max_states=128)
        outcomes[got[0] if isinstance(got[0], str) else "model"] += 1
    assert outcomes["model"] >= 30 and outcomes["RuleInstantiationError"] >= 5


# running.ptss with premises matched under the binding so far: `loop` reads a
# bound source whose target pattern repeats the bound `x`, `pair` a bound
# source whose target repeats the conclusion's `x`, and `meet` a source that
# it builds, f(x), which only its read brings into the domain
BOUND_PREMISE_SPEC = RUNNING_SPEC.replace("rule prefix", "op h : -> s\nop f : s -> s\nop g : s s -> s\nrule prefix") + (
    "rule spin: h --a-> delta(h)\n"
    "rule loop: x --a-> delta(x) |- f(x) --b-> delta(x)\n"
    "rule pair: z --a-> delta(x) |- g(x,z) --a-> delta(z)\n"
    "rule meet: f(x) --b-> delta(x) |- g(x,z) --b-> delta(z)\n"
)
BOUND_PREMISE_ROOTS = ("g(0,a.delta(0))", "g(h,a.delta(0))", "g(h,a.delta(h))", "f(a.delta(h))")
# premise sources that nothing binds: `open` reads every a-step, `open2` the
# b-steps of f(w) for any w
OPEN_PREMISE_RULES = {
    "rule open: y --a-> delta(x) |- g(x,z) --a-> delta(y)\n": "rule open: premise source y has unbound variables",
    "rule open2: f(w) --b-> delta(w) |- g(x,z) --b-> delta(w)\n": "rule open2: premise source f(w) has unbound variables",
}


def test_premises_matched_under_their_binding_agree_with_the_oracle():
    spec = parse_spec(BOUND_PREMISE_SPEC)
    roots = [parse_term(r, spec.signature) for r in BOUND_PREMISE_ROOTS]
    history, _, converged = _agree(spec, roots)
    derived = {repr(tr) for tr in history[-1][0]}
    assert converged and {
        "f(h) --b-> delta(h)",  # loop: h's a-target repeats h; f(h) is no root, meet reads it
        "g(0,a.delta(0)) --a-> delta(a.delta(0))",  # pair: a.delta(0)'s a-target repeats g's 0
        "g(h,a.delta(h)) --a-> delta(a.delta(h))",
        "g(h,a.delta(0)) --b-> delta(a.delta(0))",  # meet: f(h)'s b-target repeats h
        "g(h,a.delta(h)) --b-> delta(a.delta(h))",
    } <= derived
    assert not any(tr.startswith(("f(a.delta(h)) ", "g(h,a.delta(0)) --a->", "g(0,a.delta(0)) --b->")) for tr in derived)


@pytest.mark.parametrize("rule", sorted(OPEN_PREMISE_RULES))
def test_an_open_premise_source_is_refused_as_the_oracle_refuses_it(rule):
    spec = parse_spec(BOUND_PREMISE_SPEC + rule)
    roots = [parse_term(r, spec.signature) for r in BOUND_PREMISE_ROOTS]
    assert _agree(spec, roots) == ("RuleInstantiationError", OPEN_PREMISE_RULES[rule])


# running.ptss with rules that grow targets without bound: g1 lifts each
# a-target of k0(x) into a longer one, read back by its bound source, so every
# k0 term's targets grow and several pass --max-depth in one round
GROWING_SPEC = RUNNING_SPEC.replace("rule prefix", "op k0 : s -> s\nrule prefix") + (
    "rule g0: k0(x) --a-> delta(k0(x))\n"
    "rule g1: k0(x) --a-> mu |- k0(x) --a-> ^+(mu,delta(x))\n"
    "rule g2: x --a-> mu, x -/a-> |- k0(x) --b-> mu\n"
)


def test_the_first_target_past_the_depth_bound_is_the_oracles():
    # the engine and the oracle visit sources by depth, then by text, and use a
    # transition as soon as it is derived, so they name the same target
    spec = parse_spec(GROWING_SPEC)
    roots = [parse_term(r, spec.signature) for r in ("k0(+(a.delta(0),b.delta(0)))", "k0(k0(b.delta(0)))", "a.delta(0)")]
    assert _agree(spec, roots, max_depth=8) == (
        "DomainBoundError",
        "conclusion target exceeds max depth: ^+(^+(^+(delta(k0(+(a.delta(0),b.delta(0)))),delta(+(a.delta(0),b.delta(0)))),"
        "delta(+(a.delta(0),b.delta(0)))),delta(+(a.delta(0),b.delta(0)))) (depth 9)",
    )


# ---------------------------------------------------------------------------
# Interning

def test_equal_terms_from_every_constructor_are_one_object(sig):
    text = "+(a.delta(0),b.oplus{1/2:delta(0),1/2:delta(tau.delta(0))})"
    parsed = parse_term(text, sig)
    assert parse_term(text, sig) is parsed
    assert parse_term(text, parse_spec(RUNNING_SPEC).signature) is parsed  # a second parse of the spec
    pattern = parse_term("+(x,b.oplus{1/2:delta(0),1/2:mu})", sig)
    rho = {"x": parse_term("a.delta(0)", sig), "mu": parse_term("delta(tau.delta(0))", sig)}
    assert substitute(rho, pattern) is parsed
    text = "state s\nstate t\ntrans s --a-> { t: 1 }\n"
    pts, again = load_pts(text), load_pts(text)
    assert pts.states == (opaque_state("s"), opaque_state("t"))
    assert all(u is v for u, v in zip(pts.states, again.states))
    assert pts.transitions[0].target.support[0] is pts.states[1]


def test_finished_nodes_refuse_writes_and_copies_stay_interned(sig):
    term = parse_term("+(a.oplus{1/2:delta(0),1/2:delta(b.delta(0))},0)", sig)
    convex = term.args[0].args[0]
    nodes = (term, convex.args[0], convex)
    assert tuple(map(type, nodes)) == (Apply, Dirac, Convex)  # not the build-time twins
    for node in nodes:
        for name in ("depth", "kids", "text", node._fields[0]):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(node, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(node, name)
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    assert term.depth == 7 and term.closed


def test_deep_terms_answer_hash_depth_and_closedness_without_recursion(sig):
    zero, pre_a = parse_term("0", sig), state_op(sig, "a.")
    term = zero
    for _ in range(5000):
        term = Apply(pre_a, (Dirac(term),))
    rebuilt = zero
    for _ in range(5000):
        rebuilt = Apply(pre_a, (Dirac(rebuilt),))
    assert rebuilt is term and rebuilt == term and hash(rebuilt) == hash(term)
    assert term.depth == 10001
    assert term.closed


def _interned_count() -> int:
    """Live nodes in the intern tables."""
    return len(Apply._table) + len(Dirac._table) + len(Convex._table)


def test_intern_table_does_not_grow_across_cli_calls(capsys):
    def pts(k):  # a root no other test builds
        chain = "0"
        for i in range(k):
            chain = f"{'ab'[i % 2]}.delta({chain})"
        argv = ["pts", str(CORPUS / "running.ptss"), "--root", f"+({chain},tau.delta({chain}))"]
        assert main(argv + ["--max-depth", "64"]) == 0

    pts(21)
    gc.collect()
    settled = _interned_count()
    for k in (22, 23, 24):
        pts(k)
    gc.collect()
    assert _interned_count() <= settled
    assert capsys.readouterr().out
