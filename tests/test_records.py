"""The library's records: their equality, hashing, bounds checks and
immutability, and that importing the CLI loads no `dataclasses` machinery.

The records are `NamedTuple`s, except `Signature` and `PTS`, which derive
more state when they are built, so a tuple's own semantics must not leak
through: a state variable is never equal to a distribution variable of the
same name, and no record takes an attribute assignment."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from ptsskit.bisim import Decision, StateRelation, decide
from ptsskit.cli import Expectation
from ptsskit.distributions import Distribution
from ptsskit.engine import (PTS, DomainBound, PtsTransition, ThreeValuedModel, opaque_state, reachable_pts,
                            stable_model)
from ptsskit.format_check import (FormatReport, NestingGraph, ProbeViolation, RuleVerdict, Violation,
                                  build_nesting_graph, check_format, congruence_probe)
from ptsskit.parser import PTSS, Diagnostic, Rule, parse_spec, parse_term, try_parse_spec
from ptsskit.terms import DistVar, FunctionSymbol, Signature, Sort, StateVar
from tests.conftest import CORPUS
from tests.reference_refine import pairs

SRC = CORPUS.parent / "src"
# what `dataclasses` pulls in, none of which the CLI needs
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_a_state_and_a_distribution_variable_of_one_name_differ():
    x, mu = StateVar("x"), DistVar("x")
    assert x != mu and mu != x
    assert not x == mu and not mu == x
    assert x == StateVar("x") and not x != StateVar("x")
    assert hash(x) == hash(StateVar("x"))
    assert x != ("x",) and ("x",) != mu
    assert len({x, mu, StateVar("x"), DistVar("x")}) == 2
    table = {x: "state", mu: "dist"}
    assert table[StateVar("x")] == "state" and table[DistVar("x")] == "dist"
    assert not isinstance(mu, StateVar) and not isinstance(x, DistVar)
    assert (x.sort, mu.sort) == (Sort.STATE, Sort.DIST)
    assert repr(x) == "StateVar(name='x')" and repr(mu) == "DistVar(name='x')"


def test_a_function_symbol_hashes_by_name_and_is_equal_on_every_field():
    f = FunctionSymbol("f", (Sort.STATE,), Sort.STATE)
    assert f == FunctionSymbol("f", (Sort.STATE,), Sort.STATE)
    assert hash(f) == hash("f")
    others = [
        FunctionSymbol("g", (Sort.STATE,), Sort.STATE),
        FunctionSymbol("f", (), Sort.STATE),
        FunctionSymbol("f", (Sort.STATE,), Sort.DIST),
        FunctionSymbol("f", (Sort.STATE,), Sort.STATE, origin=f),
        FunctionSymbol("f", (Sort.STATE,), Sort.STATE, prefix_action="a"),
    ]
    for g in others:
        assert g != f and not g == f
    assert len({f, *others}) == 6
    assert repr(f) == "FunctionSymbol('f')"


def test_a_signature_is_compared_by_what_it_is_built_from(running):
    sig = running.signature
    same = Signature(sig.actions, sig.state_ops, sig.has_prefix_family)
    assert same == sig and not same != sig and same is not sig
    assert hash(same) == hash(sig) == hash((sig.actions, sig.state_ops, sig.has_prefix_family))
    assert Signature(sig.actions, sig.state_ops, not sig.has_prefix_family) != sig
    assert Signature(sig.actions[::-1], sig.state_ops, sig.has_prefix_family) != sig
    assert Signature(sig.actions, sig.state_ops[::-1], sig.has_prefix_family) != sig
    # the derived maps take no part: one changed in place leaves the two equal
    same._names["extra"] = same.state_ops[0]
    same._prefixes["extra"] = None
    assert same == sig and hash(same) == hash(sig)
    assert sig != tuple(getattr(sig, name) for name in ("actions", "state_ops", "has_prefix_family"))


def test_a_pts_is_compared_by_its_states_actions_and_transitions():
    s, t = opaque_state("s"), opaque_state("t")
    to_s, to_t = (Distribution([(u, Fraction(1))]) for u in (s, t))
    moves = (PtsTransition(s, "a", to_t), PtsTransition(t, "tau", to_s))
    pts = PTS((s, t), ("a", "tau"), moves)
    shuffled = PTS((t, s), ("a", "tau"), moves[::-1] + moves)
    assert shuffled == pts and hash(shuffled) == hash(pts)
    assert hash(pts) == hash((pts.states, pts.actions, pts.transitions))
    assert shuffled.transitions == pts.transitions and len(pts.transitions) == 2
    assert PTS((s, t), ("a", "b", "tau"), moves) != pts
    assert PTS((s, t), ("a", "tau"), moves[:1]) != pts
    assert PTS((s, t, opaque_state("u")), ("a", "tau"), moves) != pts
    assert pts.outgoing(s) == moves[:1] and pts.outgoing(t, "a") == ()


@pytest.mark.parametrize("field", ["max_depth", "max_states", "max_iterations"])
@pytest.mark.parametrize("value", [0, -1])
def test_a_domain_bound_is_positive(field, value):
    with pytest.raises(ValueError, match="^domain bounds must be positive$"):
        DomainBound((), **{field: value})
    with pytest.raises(ValueError, match="^domain bounds must be positive$"):
        DomainBound(())._replace(**{field: value})
    bound = DomainBound((), max_depth=1, max_states=1, max_iterations=1)
    assert bound._replace(max_depth=2) == DomainBound((), 2, 1, 1)
    assert DomainBound(()) == DomainBound((), 8, 512, 64)


KINDS = [FunctionSymbol, StateVar, DistVar, Signature, Diagnostic, Rule, PTSS, DomainBound, ThreeValuedModel, PTS,
         Decision, NestingGraph, Violation, RuleVerdict, FormatReport, ProbeViolation, Expectation]


@pytest.fixture(scope="module")
def records():
    """One value of each record kind, built the way the library builds it."""
    running = parse_spec((CORPUS / "running.ptss").read_text())
    cx2 = parse_spec((CORPUS / "cx2.ptss").read_text())
    rule = next(r for r in cx2.rules if r.name == "g_b")
    x2, mu = rule.pos_premises[0][0], rule.pos_premises[0][2]
    root = parse_term("a.delta(b.delta(0))", running.signature)
    bound = DomainBound((root,))
    pts = reachable_pts(running, bound)
    report = check_format(cx2)
    u, v = (parse_term(text, cx2.signature) for text in ("a.delta(b.delta(0))", "a.delta(tau.delta(b.delta(0)))"))
    (probe,) = congruence_probe(cx2, [(u, v)], [parse_term("f(_)", cx2.signature)], bound._replace(max_depth=10))
    return {
        FunctionSymbol: running.signature.state_ops[0],
        StateVar: x2,
        DistVar: mu,
        Signature: running.signature,
        Diagnostic: try_parse_spec("ptss x\nactions tau\nop 0 : -> q\n")[1][0],
        Rule: rule,
        PTSS: running,
        DomainBound: bound,
        ThreeValuedModel: stable_model(running, bound),
        PTS: pts,
        Decision: decide("branching", pts),
        NestingGraph: build_nesting_graph(cx2),
        Violation: report.all_violations()[0],
        RuleVerdict: report.verdicts[-1],
        FormatReport: report,
        ProbeViolation: probe,
        Expectation: Expectation(3, "format", "", "fail", []),
    }


def _same(a, b):
    if isinstance(a, Decision):  # its relation is compared by identity, so by what it relates
        return (a.kind, a.pts, pairs(a.relation)) == (b.kind, b.pts, pairs(b.relation))
    return a == b and not a != b


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_a_record_is_immutable_and_copies_to_an_equal_value(records, kind):
    value = records[kind]
    assert type(value) is kind
    names = kind._fields + ("unknown_field",)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is kind and _same(copied, value)


@pytest.mark.parametrize("kind", [Signature, PTS, StateRelation], ids=lambda kind: kind.__name__)
def test_every_public_attribute_holds_a_hashable_value(records, kind):
    value = records[Decision].relation if kind is StateRelation else records[kind]
    names = [name for name in getattr(kind, "__slots__", None) or vars(value) if not name.startswith("_")]
    assert names
    for name in names:
        hash(getattr(value, name))  # raises TypeError on a list, dict or set anywhere inside


def test_outgoing_returns_the_stored_tuple(records):
    pts = records[PTS]
    for s in pts.states:
        assert type(pts.outgoing(s)) is tuple and pts.outgoing(s) is pts.outgoing(s)


def test_importing_the_cli_loads_no_dataclasses():
    # a `.pth` file in site-packages may load some of HEAVY before any user
    # code runs, so only what the import itself adds counts
    code = (f"import sys; before = set(sys.modules); import ptsskit.cli; "
            f"print(*[m for m in {HEAVY!r} if m in sys.modules and m not in before])")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
