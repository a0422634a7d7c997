import random
from fractions import Fraction
from itertools import product

import pytest

from ptsskit.bisim import (
    KINDS,
    branching_bisim,
    decide,
    distinguishing_challenge,
    lift_check,
    prob_branching_bisim,
    rooted_branching_bisim,
)
from ptsskit.distributions import Distribution
from ptsskit.engine import DomainBound, load_pts, opaque_state, reachable_pts
from ptsskit.parser import parse_term
from tests.conftest import CORPUS
from tests.reference_refine import is_equivalence, outgoing, pairs, partner_map
from tests.reference_schedulers import (
    EPSILON,
    Scheduler,
    branching_bisim_scheduler_oracle,
    cone_probability,
    execution_probability,
    mass,
    scheduler_weak_transition,
    weak_combined_reachable,
)


@pytest.fixture(scope="module")
def wtrans():
    return load_pts((CORPUS / "weak_trans.pts").read_text())


@pytest.fixture(scope="module")
def mixed():
    return load_pts((CORPUS / "mixed_choice.pts").read_text())


@pytest.fixture(scope="module")
def tautree():
    return load_pts((CORPUS / "tau_tree.pts").read_text())


def S(name):
    return opaque_state(name)


def dist(*pairs):
    return Distribution([(S(n), Fraction(p)) for n, p in pairs])


# -- lifting -------------------------------------------------------------------

def test_lift_identity(wtrans):
    d = dist(("s1", "1/2"), ("s6", "1/2"))
    ident = {(s, s) for s in d.support}
    assert lift_check(partner_map(ident), d, d)


def test_lift_dirac_pair():
    assert lift_check({S("s"): {S("t")}}, dist(("s", 1)), dist(("t", 1)))


def test_lift_mass_with_nowhere_to_go():
    d1 = dist(("s", "1/2"), ("u", "1/2"))
    d2 = dist(("t", 1))
    assert not lift_check({S("s"): {S("t")}}, d1, d2)


def _lift_bruteforce(pairs, d1, d2, denominator):
    """Enumerate weight matrices on the 1/denominator grid."""
    left = d1.support
    right = d2.support
    weight1, weight2 = dict(d1.items()), dict(d2.items())

    def rows(idx, used_cols):
        if idx == len(left):
            yield used_cols
            return
        total = weight1[left[idx]]
        steps = int(total * denominator)
        for combo in _compositions(steps, len(right)):
            cols = list(used_cols)
            ok = True
            for j, c in enumerate(combo):
                if c and (left[idx], right[j]) not in pairs:
                    ok = False
                    break
                cols[j] += c
            if ok:
                yield from rows(idx + 1, cols)

    for cols in rows(0, [0] * len(right)):
        if all(
            Fraction(cols[j], denominator) == weight2[right[j]] for j in range(len(right))
        ):
            return True
    return False


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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


def test_lift_matches_bruteforce_enumeration():
    rng = random.Random(1234)
    names_l = ["a1", "a2", "a3"]
    names_r = ["b1", "b2", "b3"]
    agree = 0
    for _ in range(200):
        den = rng.choice([2, 3, 4, 5, 6])
        d1 = _random_dist(rng, names_l, den)
        d2 = _random_dist(rng, names_r, den)
        pairs = {
            (S(l), S(r))
            for l in names_l
            for r in names_r
            if rng.random() < 0.5
        }
        fast = lift_check(partner_map(pairs), d1, d2)
        slow = _lift_bruteforce(pairs, d1, d2, den)
        assert fast == slow
        agree += 1
    assert agree == 200


def test_lift_preserves_relation_properties():
    rng = random.Random(99)
    names = ["u1", "u2", "u3", "u4"]
    states = [S(n) for n in names]
    for _ in range(200):
        den = rng.choice([2, 3, 4, 6])
        d1 = _random_dist(rng, names, den)
        d2 = _random_dist(rng, names, den)
        d3 = _random_dist(rng, names, den)
        base = {(a, b) for a in states for b in states if rng.random() < 0.4}
        # reflexivity
        refl = base | {(a, a) for a in states}
        assert lift_check(partner_map(refl), d1, d1)
        # symmetry
        sym = base | {(b, a) for a, b in base}
        if lift_check(partner_map(sym), d1, d2):
            assert lift_check(partner_map(sym), d2, d1)
        # transitivity: close the relation, then check composition
        trans = dict.fromkeys(states)
        closed = set(sym)
        changed = True
        while changed:
            changed = False
            for a, b in list(closed):
                for c, d in list(closed):
                    if b == c and (a, d) not in closed:
                        closed.add((a, d))
                        changed = True
        closed = partner_map(closed)
        if lift_check(closed, d1, d2) and lift_check(closed, d2, d3):
            assert lift_check(closed, d1, d3)
        assert trans is not None


# -- schedulers and cones --------------------------------------------------------

def _wtrans_transition(pts, src, label):
    (tr,) = outgoing(pts, S(src), label)
    return tr


def test_cone_probability_base(wtrans):
    sched = Scheduler({})
    assert cone_probability(wtrans, sched, S("s0"), (S("s0"),)) == 1
    assert cone_probability(wtrans, sched, S("s0"), (S("s1"),)) == 0


def test_cone_probability_multiplicative_step(wtrans):
    t0 = _wtrans_transition(wtrans, "s0", "tau")
    sched = Scheduler({(S("s0"),): {t0: Fraction(1)}})
    frag = (S("s0"), "tau", S("s1"))
    assert cone_probability(wtrans, sched, S("s0"), frag) == Fraction(1, 2)
    # not chosen -> zero mass
    assert cone_probability(wtrans, sched, S("s0"), (S("s0"), "tau", S("s2"))) == 0


def test_execution_probability_uses_stop_mass(wtrans):
    t0 = _wtrans_transition(wtrans, "s0", "tau")
    sched = Scheduler({(S("s0"),): {t0: Fraction(4, 5)}})
    # stopping at the empty fragment keeps 1/5
    assert execution_probability(wtrans, sched, S("s0"), (S("s0"),)) == Fraction(1, 5)
    frag = (S("s0"), "tau", S("s1"))
    assert execution_probability(wtrans, sched, S("s0"), frag) == Fraction(2, 5)


def _wtrans_weak_a_scheduler(wtrans):
    s = {
        (S("s0"),): {_wtrans_transition(wtrans, "s0", "tau"): Fraction(1)},
        (S("s0"), "tau", S("s1")): {_wtrans_transition(wtrans, "s1", "tau"): Fraction(1)},
        (S("s0"), "tau", S("s1"), "tau", S("s2")): {
            _wtrans_transition(wtrans, "s2", "a"): Fraction(1)
        },
        (S("s0"), "tau", S("s1"), "tau", S("s3")): {
            _wtrans_transition(wtrans, "s3", "a"): Fraction(1)
        },
        (S("s0"), "tau", S("s6")): {_wtrans_transition(wtrans, "s6", "a"): Fraction(1)},
    }
    return Scheduler(s)


def test_explicit_scheduler_realizes_item_iii(wtrans):
    sched = _wtrans_weak_a_scheduler(wtrans)
    assert sched.is_deterministic()
    endpoint = scheduler_weak_transition(wtrans, sched, S("s0"), "a")
    assert endpoint == dist(("s5", "1/2"), ("s7", "1/2"))


def test_explicit_scheduler_realizes_item_iv(wtrans):
    base = dict(_wtrans_weak_a_scheduler(wtrans).choices)
    frag = (S("s0"), "tau", S("s6"), "a", S("s7"))
    base[frag] = {_wtrans_transition(wtrans, "s7", "tau"): Fraction(3, 5)}
    endpoint = scheduler_weak_transition(wtrans, Scheduler(base), S("s0"), "a")
    assert endpoint == dist(
        ("s5", "1/2"), ("s7", "1/5"), ("s8", "3/20"), ("s9", "3/20")
    )


def test_scheduler_trace_violation_rejected(wtrans):
    t0 = _wtrans_transition(wtrans, "s0", "tau")
    sched = Scheduler({(S("s0"),): {t0: Fraction(1)}})
    # stops after one tau with probability 1 -> fine for eps, not for 'a'
    assert scheduler_weak_transition(wtrans, sched, S("s0"), EPSILON) == dist(
        ("s1", "1/2"), ("s6", "1/2")
    )
    assert scheduler_weak_transition(wtrans, sched, S("s0"), "a") is None


# -- weak combined transitions (LP) ----------------------------------------------

def test_weak_item_i(wtrans):
    assert weak_combined_reachable(wtrans, S("s0"), EPSILON, dist(("s0", 1)))


def test_weak_item_ii(wtrans):
    target = dist(("s0", "1/5"), ("s2", "1/5"), ("s3", "1/5"), ("s6", "2/5"))
    assert weak_combined_reachable(wtrans, S("s0"), EPSILON, target)


def test_weak_item_iii(wtrans):
    assert weak_combined_reachable(wtrans, S("s0"), "a", dist(("s5", "1/2"), ("s7", "1/2")))


def test_weak_item_iv(wtrans):
    target = dist(("s5", "1/2"), ("s7", "1/5"), ("s8", "3/20"), ("s9", "3/20"))
    assert weak_combined_reachable(wtrans, S("s0"), "a", target)


def test_weak_no_b_from_s0(wtrans):
    grid = [dist((n, 1)) for n in ("s0", "s4", "s5", "s7", "s8", "s9")]
    grid += [
        dist(("s4", "1/2"), ("s5", "1/2")),
        dist(("s4", "1/2"), ("s7", "1/2")),
        dist(("s4", "1/4"), ("s5", "1/4"), ("s8", "1/4"), ("s9", "1/4")),
    ]
    for target in grid:
        assert not weak_combined_reachable(wtrans, S("s0"), "b", target)


def test_weak_rejects_infeasible_split(wtrans):
    # mass 0.6 on s5 is impossible: the s6 branch keeps half the mass away
    assert not weak_combined_reachable(wtrans, S("s0"), "a", dist(("s5", "3/5"), ("s7", "2/5")))


def test_weak_respects_allowed_subset(wtrans):
    tau0 = _wtrans_transition(wtrans, "s0", "tau")
    ok = weak_combined_reachable(
        wtrans, S("s0"), EPSILON, dist(("s1", "1/2"), ("s6", "1/2")), allowed=[tau0]
    )
    assert ok
    # without the s1 tau the deeper split is unreachable
    deeper = dist(("s2", "1/4"), ("s3", "1/4"), ("s6", "1/2"))
    assert weak_combined_reachable(wtrans, S("s0"), EPSILON, deeper)
    assert not weak_combined_reachable(wtrans, S("s0"), EPSILON, deeper, allowed=[tau0])


def test_weak_lp_agrees_with_explicit_schedulers(wtrans):
    # every endpoint produced by a concrete scheduler must be LP-reachable
    sched = _wtrans_weak_a_scheduler(wtrans)
    endpoint = scheduler_weak_transition(wtrans, sched, S("s0"), "a")
    assert endpoint is not None
    assert weak_combined_reachable(wtrans, S("s0"), "a", endpoint)


# -- branching bisimulation -------------------------------------------------------

def test_tau_tree_t_states_all_related(tautree):
    rel = branching_bisim(tautree)
    ts = [S(f"t{i}") for i in range(1, 5)]
    for a, b in product(ts, ts):
        assert rel.related(a, b)
    assert is_equivalence(rel)


def test_tau_tree_transitions_branching_preserving(tautree):
    rel = branching_bisim(tautree)
    taus = [tr for tr in tautree.transitions if tr.label == "tau"]
    for tr in taus:
        assert lift_check(partner_map(rel), Distribution.dirac(tr.source), tr.target)


def test_tau_tree_stop_not_related_to_live_states(tautree):
    rel = branching_bisim(tautree)
    for name in ("s0", "s1", "s2", "s3", "t1"):
        assert not rel.related(S(name), S("stop"))


def test_mixed_choice_branching_rejects(mixed):
    rel = branching_bisim(mixed)
    assert not rel.related(S("t0"), S("u1"))
    assert not rel.related(S("t1"), S("u1"))
    assert rel.related(S("t0"), S("t1"))


def test_mixed_choice_probabilistic_accepts(mixed):
    rel = prob_branching_bisim(mixed)
    assert rel.related(S("t0"), S("u1"))
    assert rel.related(S("t1"), S("u1"))
    assert is_equivalence(rel)


def test_prob_contains_branching(wtrans, mixed, tautree):
    for pts in (wtrans, mixed, tautree):
        bb = branching_bisim(pts)
        pb = prob_branching_bisim(pts)
        assert pairs(bb) <= pairs(pb)


def test_singleton_deadlock_reflexive():
    pts = load_pts("state s\n")
    rel = branching_bisim(pts)
    assert rel.related(S("s"), S("s"))


def test_branching_is_greatest_fixpoint(mixed):
    # adding any removed pair must break the defining clause
    rel = branching_bisim(mixed)
    removed = [
        (s, t)
        for s in mixed.states
        for t in mixed.states
        if not rel.related(s, t)
    ]
    for s, t in removed:
        assert distinguishing_challenge(mixed, "branching", s, t, rel) is not None


def test_oracle_agrees_on_corpus_automata(wtrans, mixed, tautree):
    for pts in (wtrans, mixed, tautree):
        assert len(pts.states) <= 12
        fast = branching_bisim(pts)
        slow = branching_bisim_scheduler_oracle(pts, max_len=6)
        assert pairs(fast) == slow.pairs


def test_oracle_single_state():
    pts = load_pts("state only\n")
    rel = branching_bisim_scheduler_oracle(pts, max_len=4)
    assert rel.pairs == {(S("only"), S("only"))}


# -- rooted branching bisimulation ------------------------------------------------

def test_rooted_running_example(running, sig):
    s = parse_term("a.delta(b.delta(0))", sig)
    t = parse_term("a.delta(tau.delta(b.delta(0)))", sig)
    pts = reachable_pts(running, DomainBound((s, t)))
    assert rooted_branching_bisim(pts, s, t, branching_bisim(pts))


def test_rooted_rejects_label_mismatch(running, sig):
    s = parse_term("b.delta(0)", sig)
    t = parse_term("tau.delta(b.delta(0))", sig)
    pts = reachable_pts(running, DomainBound((s, t)))
    rel = branching_bisim(pts)
    assert not rooted_branching_bisim(pts, s, t, rel)
    # but they are branching bisimilar
    assert rel.related(s, t)


def test_rooted_reflexive(mixed):
    assert rooted_branching_bisim(mixed, S("t1"), S("t1"), branching_bisim(mixed))


def test_rooted_and_witnesses_refuse_a_state_outside_the_pts(mixed):
    bb = branching_bisim(mixed)
    for pair in ((S("t1"), S("nowhere")), (S("nowhere"), S("t1"))):
        with pytest.raises(ValueError, match="^both states must belong to the PTS$"):
            rooted_branching_bisim(mixed, *pair, bb)
        for kind in KINDS:
            with pytest.raises(ValueError, match="^both states must belong to the PTS$"):
                decide(kind, mixed).witness(*pair)


def test_rooted_contained_in_branching(running, sig):
    pairs = [
        ("a.delta(0)", "a.delta(0)"),
        ("a.delta(b.delta(0))", "a.delta(tau.delta(b.delta(0)))"),
        ("+(a.delta(0),b.delta(0))", "+(b.delta(0),a.delta(0))"),
    ]
    for left, right in pairs:
        s = parse_term(left, sig)
        t = parse_term(right, sig)
        pts = reachable_pts(running, DomainBound((s, t)))
        if rooted_branching_bisim(pts, s, t, branching_bisim(pts)):
            assert branching_bisim(pts).related(s, t)


def test_rooted_lifts_initial_steps_against_branching_bisimulation():
    """Pins the rooted reading that ROADMAP item 10 ("Rooted bisimulation")
    leaves open: x and y each take one c-step, to t1 and to u1, which
    pbranching relates and branching does not.  Rooted lifts the c-steps
    against branching bisimulation, so it answers NO.  Lifting them against
    the pbranching relation instead would make this test fail, as it should."""
    extra = "state x\nstate y\ntrans x --c-> { t1: 1 }\ntrans y --c-> { u1: 1 }\n"
    pts = load_pts((CORPUS / "mixed_choice.pts").read_text() + extra)
    x, y = S("x"), S("y")
    pb = decide("pbranching", pts)
    assert pb.related(S("t1"), S("u1")) and pb.related(x, y)
    assert not decide("branching", pts).related(S("t1"), S("u1"))
    rooted = decide("rooted", pts)
    assert not rooted.related(x, y)
    state, challenge = rooted.witness(x, y)
    assert state == x and repr(challenge) == "x --c-> {t1: 1}"


def test_wtrans_pi0_mass_is_one(wtrans):
    (tr,) = outgoing(wtrans, S("s0"), "tau")
    assert mass(tr.target, [S("s1"), S("s6")]) == 1
    assert mass(tr.target, [S("s1")]) == Fraction(1, 2)


def test_class_changing_tau_matched_by_actual_step(running, sig):
    # a tau resolving a choice is not inert and must be mirrored by a real tau
    s = parse_term("+(tau.delta(a.delta(0)),b.delta(0))", sig)
    t = parse_term("+(b.delta(0),tau.delta(a.delta(0)))", sig)
    u = parse_term("tau.delta(a.delta(0))", sig)
    pts = reachable_pts(running, DomainBound((s, t, u)))
    rel = branching_bisim(pts)
    assert rel.related(s, t)
    assert not rel.related(s, u)  # u has already lost the b option
    assert is_equivalence(rel)
    oracle = branching_bisim_scheduler_oracle(pts, max_len=6)
    assert oracle.pairs == pairs(rel)


def test_oracle_budget_error(tautree):
    from tests.reference_schedulers import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        branching_bisim_scheduler_oracle(tautree, max_len=6, budget=1)


def test_weak_transition_through_tau_cycle(tautree):
    # s2 loops back to itself with probability 1/5; always continuing yields
    # the geometric-escape endpoint solved exactly by the occupation LP
    target = dist(("t1", "1/8"), ("t2", "3/8"), ("t3", "1/4"), ("t4", "1/4"))
    assert weak_combined_reachable(tautree, S("s2"), EPSILON, target)
    # t3/t4 mass is unavoidable once the looping branch is taken at all
    assert not weak_combined_reachable(
        tautree, S("s2"), EPSILON, dist(("t1", "1/2"), ("t2", "1/2"))
    )
    assert not weak_combined_reachable(
        tautree, S("s2"), "a", dist(("t1", "1/2"), ("t2", "1/2"))
    )
    # with the loop forbidden, only the direct branch remains
    direct = [tr for tr in tautree.transitions if tr.label == "tau" and len(tr.target.support) == 1]
    assert weak_combined_reachable(tautree, S("s2"), EPSILON, dist(("t4", 1)), allowed=direct)
    assert not weak_combined_reachable(tautree, S("s2"), EPSILON, target, allowed=direct)
