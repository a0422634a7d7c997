"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact — rational arithmetic end to end, no tolerances.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
from fractions import Fraction

import pytest

from ptsskit.bisim import branching_bisim, lift_check, prob_branching_bisim
from ptsskit.distributions import Distribution, evaluate
from ptsskit.engine import (
    DomainBound,
    SymbolicTransition,
    is_complete,
    load_pts,
    opaque_state,
    reachable_pts,
    stable_model,
)
from ptsskit.format_check import check_format, congruence_probe, plug
from ptsskit.parser import parse_spec, parse_term
from tests.conftest import CORPUS
from tests.genspecs import random_format_safe_spec, random_negative_free_spec, shallow_contexts
from tests.reference_refine import pairs
from tests.reference_schedulers import EPSILON, branching_bisim_scheduler_oracle, weak_combined_reachable

S_TEXT = "a.delta(b.delta(0))"
T_TEXT = "a.delta(tau.delta(b.delta(0)))"


def report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def load_spec(name):
    return parse_spec((CORPUS / name).read_text())


def load_auto(name):
    return load_pts((CORPUS / name).read_text())


def S(name):
    return opaque_state(name)


def dist(*pairs):
    return Distribution([(S(n), Fraction(p)) for n, p in pairs])


def test_criterion_1_running_example():
    spec = load_spec("running.ptss")
    assert len(spec.rules) == 3 * len(spec.signature.actions)
    roots = tuple(
        parse_term(t, spec.signature)
        for t in ("+(a.delta(0),b.delta(0))", "a.delta(tau.delta(0))", S_TEXT, T_TEXT)
    )
    complete, model = is_complete(spec, DomainBound(roots))
    assert complete and model.converged
    assert check_format(spec).overall
    report(1, "running example parses, is complete, and passes the format check")


def test_criterion_2_two_rule_f_spec():
    spec = load_spec("incomplete_f.ptss")
    f = parse_term("f", spec.signature)
    fhat = parse_term("^f", spec.signature)
    model = stable_model(spec, DomainBound((f,)))
    assert model.converged
    assert model.ct == frozenset()
    assert model.pt == frozenset(
        {SymbolicTransition(f, "a", fhat), SymbolicTransition(f, "b", fhat)}
    )
    complete, _ = is_complete(spec, DomainBound((f,)))
    assert complete is False
    report(2, "blocking negative premises: CT empty, PT = {f -a->, f -b->}, incomplete")


def test_criterion_3_weak_combined_transitions():
    pts = load_auto("weak_trans.pts")
    s0 = S("s0")
    assert weak_combined_reachable(pts, s0, EPSILON, dist(("s0", 1)))
    assert weak_combined_reachable(
        pts, s0, EPSILON, dist(("s0", "1/5"), ("s2", "1/5"), ("s3", "1/5"), ("s6", "2/5"))
    )
    assert weak_combined_reachable(pts, s0, "a", dist(("s5", "1/2"), ("s7", "1/2")))
    assert weak_combined_reachable(
        pts, s0, "a", dist(("s5", "1/2"), ("s7", "1/5"), ("s8", "3/20"), ("s9", "3/20"))
    )
    grid = [dist((n, 1)) for n in ("s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9")]
    names = ("s4", "s5", "s7", "s8", "s9")
    grid += [dist((u, "1/2"), (v, "1/2")) for i, u in enumerate(names) for v in names[i + 1:]]
    grid += [
        dist(("s4", "1/4"), ("s5", "1/4"), ("s8", "1/4"), ("s9", "1/4")),
        dist(("s5", "1/2"), ("s7", "1/5"), ("s8", "3/20"), ("s9", "3/20")),
    ]
    for target in grid:
        assert not weak_combined_reachable(pts, s0, "b", target)
    report(3, "all four weak-transition items reproduce exactly; no weak b-transition")


def test_criterion_4_mixed_choice():
    pts = load_auto("mixed_choice.pts")
    bb = branching_bisim(pts)
    pb = prob_branching_bisim(pts)
    assert not bb.related(S("t0"), S("u1"))
    assert pb.related(S("t0"), S("u1"))
    assert pb.related(S("t1"), S("u1"))
    report(4, "mixed a-target: rejected deterministically, accepted with combining")


def test_criterion_5_tau_tree():
    pts = load_auto("tau_tree.pts")
    bb = branching_bisim(pts)
    ts = [S(f"t{i}") for i in range(1, 5)]
    for u in ts:
        for v in ts:
            assert bb.related(u, v)
    taus = [tr for tr in pts.transitions if tr.label == "tau"]
    for tr in taus:
        assert lift_check(bb, Distribution.dirac(tr.source), tr.target)
    report(5, "t1..t4 all related; every depicted tau-transition is branching preserving")


def _corpus_ptss_instances():
    """PTSs derived from spec files (probe roots), for the theorem check."""
    out = []
    for name, roots_texts in (
        ("cx2.ptss", (f"f({S_TEXT})", f"f({T_TEXT})", S_TEXT, T_TEXT)),
        ("cx23.ptss", (f"f({S_TEXT})", f"f({T_TEXT})", S_TEXT, T_TEXT)),
        ("running.ptss", (S_TEXT, T_TEXT, "+(a.delta(0),b.delta(0))")),
    ):
        spec = load_spec(name)
        roots = tuple(parse_term(t, spec.signature) for t in roots_texts)
        out.append((name, reachable_pts(spec, DomainBound(roots, max_depth=10))))
    return out


def test_criterion_6_scheduler_free_theorem():
    instances = [(n, load_auto(n)) for n in ("weak_trans.pts", "mixed_choice.pts", "tau_tree.pts")]
    instances += _corpus_ptss_instances()
    checked = 0
    for name, pts in instances:
        if len(pts.states) > 12:
            continue
        fast = branching_bisim(pts)
        slow = branching_bisim_scheduler_oracle(pts, max_len=6)
        assert pairs(fast) == slow.pairs, name
        checked += 1
    assert checked >= 5
    report(6, f"scheduler-free = bounded-scheduler relation on {checked} corpus systems")


def test_criterion_7_counterexample_battery():
    s_text, t_text = S_TEXT, T_TEXT

    def probe(spec, kind="rooted", pair=(s_text, t_text), context="f(_)"):
        sig = spec.signature
        pairs = [(parse_term(pair[0], sig), parse_term(pair[1], sig))]
        contexts = [parse_term(context, sig)]
        return congruence_probe(spec, pairs, contexts, DomainBound((), max_depth=10), kind=kind)

    # rules (2): violation 2b and a rooted-congruence failure
    cx2 = load_spec("cx2.ptss")
    rep2 = check_format(cx2)
    assert not rep2.overall
    assert any(v.rule == "g_b" and v.condition == "2b" for v in rep2.all_violations())
    assert len(probe(cx2)) == 1

    # rules (2)+(3): format passes and the wrapped pair stays related
    cx23 = load_spec("cx23.ptss")
    assert check_format(cx23).overall
    assert probe(cx23) == []
    fs = parse_term(f"f({s_text})", cx23.signature)
    ft = parse_term(f"f({t_text})", cx23.signature)
    pts23 = reachable_pts(cx23, DomainBound((fs, ft), max_depth=10))
    assert branching_bisim(pts23).related(fs, ft)

    # rules (4): wild positions without patience rules
    rep4 = check_format(load_spec("cx4.ptss"))
    assert not rep4.overall
    assert any(v.rule == "g_b" and v.condition == "2b" for v in rep4.all_violations())
    assert any(v.rule == "h_b" and v.condition == "2b" for v in rep4.all_violations())

    # rules (2)+(3)+(5): inherited wildness without h's patience rule
    cx235 = load_spec("cx235.ptss")
    rep235 = check_format(cx235)
    assert not rep235.overall
    assert any(v.rule == "h_b" and v.condition == "2b" for v in rep235.all_violations())
    assert len(probe(cx235)) == 1

    # rules (6): wild argument as negative-premise or tau-premise source
    for name, rule in (("cx236l.ptss", "g_neg"), ("cx236r.ptss", "g_tau")):
        rep = check_format(load_spec(name))
        assert not rep.overall
        assert any(v.rule == rule and v.condition == "2a" for v in rep.all_violations())

    # final example: format passes, probabilistic branching congruence fails
    final = load_spec("final_pb.ptss")
    assert check_format(final).overall
    sig = final.signature
    t1 = "+(a.delta(b.delta(0)),a.delta(c.delta(0)))"
    t2 = f"+({t1},a.oplus{{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))}})"
    assert len(probe(final, kind="pbranching", pair=(t1, t2))) == 1
    ft1 = plug(parse_term("f(_)", sig), parse_term(t1, sig))
    ft2 = plug(parse_term("f(_)", sig), parse_term(t2, sig))
    pts = reachable_pts(final, DomainBound((ft1, ft2), max_depth=10))
    rel = prob_branching_bisim(pts)
    gbb = evaluate(parse_term("^g(delta(b.delta(0)),delta(b.delta(0)))", sig))
    gcc = evaluate(parse_term("^g(delta(c.delta(0)),delta(c.delta(0)))", sig))
    mixed = evaluate(
        parse_term(
            "^g(oplus{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))},"
            "oplus{1/2:delta(b.delta(0)),1/2:delta(c.delta(0))})",
            sig,
        )
    )
    assert lift_check(rel, gbb, gcc)
    assert not lift_check(rel, gbb, mixed)
    report(7, "all six counterexample specs behave exactly as documented")


# -- criterion 8: property suites ---------------------------------------------------

def _random_dist(rng, names, denominator):
    cuts = sorted(rng.randrange(denominator + 1) for _ in range(len(names) - 1))
    weights = []
    prev = 0
    for c in cuts + [denominator]:
        weights.append(c - prev)
        prev = c
    return Distribution(
        [(S(n), Fraction(w, denominator)) for n, w in zip(names, weights) if w]
    )


def test_criterion_8a_lifting_preserves_properties():
    rng = random.Random(20260811)
    names = ["u1", "u2", "u3", "u4"]
    states = [S(n) for n in names]
    for _ in range(200):
        den = rng.choice([2, 3, 4, 6])
        d1 = _random_dist(rng, names, den)
        d2 = _random_dist(rng, names, den)
        d3 = _random_dist(rng, names, den)
        base = {(a, b) for a in states for b in states if rng.random() < 0.4}
        refl = base | {(a, a) for a in states}
        assert lift_check(refl, d1, d1)
        sym = base | {(b, a) for a, b in base}
        if lift_check(sym, d1, d2):
            assert lift_check(sym, d2, d1)
        closed = set(sym)
        changed = True
        while changed:
            changed = False
            for a, b in list(closed):
                for c, d in list(closed):
                    if b == c and (a, d) not in closed:
                        closed.add((a, d))
                        changed = True
        if lift_check(closed, d1, d2) and lift_check(closed, d2, d3):
            assert lift_check(closed, d1, d3)
    report("8a", "200 random cases: lifting preserves reflexivity/symmetry/transitivity")


def _lift_bruteforce(pairs, d1, d2, denominator):
    left, right = d1.support, d2.support

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def rows(idx, cols):
        if idx == len(left):
            yield cols
            return
        steps = int(d1.get(left[idx]) * denominator)
        for combo in compositions(steps, len(right)):
            if any(c and (left[idx], right[j]) not in pairs for j, c in enumerate(combo)):
                continue
            yield from rows(idx + 1, [a + b for a, b in zip(cols, combo)])

    return any(
        all(Fraction(c, denominator) == d2.get(r) for c, r in zip(cols, right))
        for cols in rows(0, [0] * len(right))
    )


def test_criterion_8b_lift_check_vs_bruteforce():
    rng = random.Random(424242)
    for _ in range(200):
        den = rng.choice([2, 3, 4, 5, 6])
        d1 = _random_dist(rng, ["l1", "l2", "l3"], den)
        d2 = _random_dist(rng, ["r1", "r2", "r3"], den)
        pairs = {
            (S(l), S(r))
            for l in ("l1", "l2", "l3")
            for r in ("r1", "r2", "r3")
            if rng.random() < 0.5
        }
        assert lift_check(pairs, d1, d2) == _lift_bruteforce(pairs, d1, d2, den)
    report("8b", "200 random cases: max-flow lifting = weight-function enumeration")


CORPUS_SPEC_ROOTS = {
    "running.ptss": ("+(a.delta(0),b.delta(0))", T_TEXT),
    "incomplete_f.ptss": ("f",),
    "delayed_g.ptss": ("g",),
    "cx2.ptss": (f"f({S_TEXT})", f"f({T_TEXT})"),
    "cx23.ptss": (f"f({S_TEXT})", f"f({T_TEXT})"),
    "cx235.ptss": (f"f({S_TEXT})", f"f({T_TEXT})"),
    "cx236l.ptss": (f"f({S_TEXT})", f"f({T_TEXT})"),
    "cx236r.ptss": (f"f({S_TEXT})", f"f({T_TEXT})"),
    "cx4.ptss": (f"f({S_TEXT})", f"f({T_TEXT})"),
    "final_pb.ptss": ("f(+(a.delta(b.delta(0)),a.delta(c.delta(0))))",),
}


def test_criterion_8c_stable_model_monotonicity():
    checked = 0
    for name, root_texts in sorted(CORPUS_SPEC_ROOTS.items()):
        spec = load_spec(name)
        roots = tuple(parse_term(t, spec.signature) for t in root_texts)
        model = stable_model(spec, DomainBound(roots, max_depth=10))
        assert model.converged, name
        for (ct_a, pt_a), (ct_b, pt_b) in zip(model.history, model.history[1:]):
            assert ct_a <= ct_b, name
            assert pt_a >= pt_b, name
        for ct, pt in model.history:
            assert ct <= pt, name
        checked += 1
    assert checked == len(CORPUS_SPEC_ROOTS)
    report("8c", f"certain grows and possible shrinks across iterations in {checked} specs")


def test_criterion_8d_negative_free_specs_complete():
    rng = random.Random(13579)
    for i in range(100):
        spec, roots = random_negative_free_spec(rng)
        model = stable_model(spec, DomainBound(tuple(roots), max_depth=12, max_states=256))
        assert model.converged, i
        assert model.ct == model.pt, i
    report("8d", "100 generated negative-premise-free specs are all complete")


def test_criterion_8e_format_passing_specs_probe_clean():
    rng = random.Random(97531)
    sig_pairs = [
        (S_TEXT, T_TEXT),
        ("a.delta(0)", "+(a.delta(0),0)"),
    ]
    probed = 0
    for i in range(50):
        spec = random_format_safe_spec(rng)
        assert check_format(spec).overall, i
        pairs = [
            (parse_term(a, spec.signature), parse_term(b, spec.signature))
            for a, b in sig_pairs
        ]
        contexts = shallow_contexts(spec, max_count=4)
        violations = congruence_probe(
            spec,
            pairs,
            contexts,
            DomainBound((), max_depth=14, max_states=400),
            kind="rooted",
        )
        assert violations == [], f"spec {i}: {[str(v) for v in violations]}"
        probed += 1
    assert probed == 50
    report("8e", "50 generated format-passing specs: no congruence violations, depth-2 contexts")
