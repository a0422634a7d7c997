"""`render_term` against the recursive renderer in `tests/reference_render.py`:
the same text and the same order on corpus terms, on the domains of generated
specs and on fixed-seed random terms; and terms thousands of levels deep
render and sort without recursion."""

import random
from fractions import Fraction

import pytest

from ptsskit.engine import DomainBound, DomainBoundError, _closed_universe, load_pts
from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import Apply, Convex, Dirac, DistVar, StateVar, render_term
from tests import reference_render as reference
from tests.conftest import CORPUS, RUNNING_SPEC, state_op
from tests.genspecs import LEAF_TERMS, random_format_safe_spec, random_negative_free_spec
from tests.test_golden_pts import SPEC_ROOTS


def _subterms(roots):
    seen, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if t not in seen:
            seen[t] = None
            stack.extend(t.kids)
    return list(seen)


def _agree(terms, seed=0):
    terms = list(terms)
    random.Random(seed).shuffle(terms)  # so that the texts kept on nodes fill in another order
    assert [render_term(t) for t in terms] == [reference.render_term(t) for t in terms]
    assert sorted(terms, key=render_term) == sorted(terms, key=reference.render_term)


@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()), ids=lambda p: p.name)
def test_corpus_terms(path):
    if path.suffix == ".pts":
        _agree(load_pts(path.read_text()).states)
        return
    spec = parse_spec(path.read_text())
    patterns = []
    for rule in spec.rules:
        patterns += [rule.source, rule.target, *(s for s, _ in rule.neg_premises)]
        patterns += [term for s, _, t in rule.pos_premises for term in (s, t)]
    roots = [parse_term(text, spec.signature) for text in SPEC_ROOTS.get(path.name, ())]
    universe = _closed_universe(spec, DomainBound(tuple(roots), max_depth=10))[0] if roots else []
    _agree(_subterms(patterns + roots + sorted(universe, key=render_term)))


def test_generated_spec_domains():
    rng = random.Random(808)
    domains = 0
    for i in range(40):
        if i % 2:
            spec, roots = random_negative_free_spec(rng)
        else:
            spec = random_format_safe_spec(rng)
            roots = [parse_term(f"k0({rng.choice(LEAF_TERMS)})", spec.signature) for _ in range(2)]
        try:
            universe, _ = _closed_universe(spec, DomainBound(tuple(roots), max_depth=10, max_states=128))
        except DomainBoundError:
            continue
        _agree(_subterms(sorted(universe, key=render_term)), seed=i)
        domains += 1
    assert domains >= 20


def _random_term(rng, sig, sort, depth):
    if sort == "d":
        roll = rng.randrange(4 if depth else 1)
        if roll == 0:
            return DistVar("mu") if rng.random() < 0.1 else Dirac(_random_term(rng, sig, "s", depth))
        if roll == 1:
            n = rng.randint(1, 3)
            cuts = sorted(rng.sample(range(1, 12), n - 1))
            weights = [Fraction(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
            return Convex(tuple(weights), tuple(_random_term(rng, sig, "d", depth - 1) for _ in weights))
        op = rng.choice(sig.dist_ops)
        return Apply(op, tuple(_random_term(rng, sig, "d", depth - 1) for _ in op.arg_sorts))
    if not depth or rng.random() < 0.15:
        return rng.choice([StateVar("x"), StateVar("y"), Apply(state_op(sig, "0"), ())])
    op = rng.choice([f for f in sig.state_ops if f.rank])
    return Apply(op, tuple(_random_term(rng, sig, s.value, depth - 1) for s in op.arg_sorts))


def test_random_terms():
    sig = parse_spec(RUNNING_SPEC).signature
    rng = random.Random(77)
    for round_ in range(20):
        terms = [_random_term(rng, sig, rng.choice("sd"), rng.randint(0, 9)) for _ in range(30)]
        _agree(_subterms(terms), seed=round_)


def test_deep_chains_render_and_sort_without_recursion():
    sig = parse_spec(RUNNING_SPEC).signature
    labels = [("a", "b", "tau")[i % 3] for i in range(2500)]
    chain = [Apply(state_op(sig, "0"), ())]
    for label in labels:  # a.delta(…) 5,000 levels deep
        chain.append(Apply(state_op(sig, f"{label}."), (Dirac(chain[-1]),)))
    assert chain[-1].depth == 5001

    def text(k):
        return "".join(f"{labels[i]}.delta(" for i in reversed(range(k))) + "0" + ")" * k

    picks = [2500, 1, 1234, 0, 2499, 77, 1235]
    for k in [2500, 1234, 7]:
        assert render_term(chain[k]) == text(k)
    assert sorted((chain[k] for k in picks), key=render_term) == [chain[k] for k in sorted(picks, key=text)]
    # a node keeps its text when at most 16 deep or at a multiple of 16
    nodes = _subterms([chain[-1]])
    assert sum(n.text is not None for n in nodes) <= 16 + 5001 // 16

    mixed = chain[0]
    for _ in range(1700):  # a.oplus{1/2:delta(0),1/2:delta(…)}, 5,100 levels
        mixed = Apply(state_op(sig, "a."), (Convex((Fraction(1, 2),) * 2, (Dirac(chain[0]), Dirac(mixed))),))
    assert render_term(mixed) == "a.oplus{1/2:delta(0),1/2:delta(" * 1700 + "0" + ")}" * 1700
