"""The closed form by which the per-pair checks lift, `bisim._lifts`, against
`lift_check` and the max-flow lifting of `tests/reference_lp.py`, on
distribution pairs over a random partition widened by a random pair s, t.
With S and T the blocks of s and t, mu lifts to nu exactly when they agree on
every other block and mu(S) - nu(S) lies between -min(mu(t), nu(s)) and
min(mu(s), nu(t)).  Fixed seed; the edge cases are drawn on purpose: the
difference exactly at either bound and one unit past it, s and t outside
both supports, S or T without mass on one side, s and t in one block, a
disagreement on another block, and unconstrained draws."""

import random
from fractions import Fraction

import ptsskit.bisim as bisim
from ptsskit.distributions import Distribution
from ptsskit.engine import load_pts
from tests.reference_lp import lift_by_max_flow

UNITS = 12  # every weight is a multiple of 1/UNITS
CASES = ("upper", "lower", "past upper", "past lower", "between", "outside", "empty", "one block", "other block",
         "free")


def _spread(rng, total, states):
    """`total` units spread at random over `states`, some of them left empty."""
    weights = dict.fromkeys(states, 0)
    for _ in range(total):
        weights[rng.choice(states)] += 1
    return weights


def _draw(rng, case):
    """(block, s, t, mu, nu): block numbers of n states, a pair and two
    distributions as {state: units} such that `case` holds, or None."""
    n = rng.randint(2, 7)
    block = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    s, t = rng.sample(range(n), 2)
    if case == "one block":
        block[t] = block[s]
    elif block[s] == block[t]:
        block[t] = n  # a block of its own
    S, T = block[s], block[t]
    allowed = [u for u in range(n) if not (case == "outside" and u in (s, t))]
    if case == "empty" and rng.random() < 0.5:  # no mu mass on S or on T
        side = rng.choice((S, T))
        allowed = [u for u in allowed if block[u] != side]
    if not allowed:
        return None
    mu = {**dict.fromkeys(range(n), 0), **_spread(rng, UNITS, allowed)}
    if case == "free":
        return block, s, t, mu, _spread(rng, UNITS, list(range(n)))
    # nu: mu's mass on every other block, spread at random inside it
    nu = dict.fromkeys(range(n), 0)
    for b in set(block) - {S, T}:
        members = [u for u in range(n) if block[u] == b]
        nu.update(_spread(rng, sum(mu[u] for u in members), members))
    mass = lambda d, b: sum(w for u, w in d.items() if block[u] == b)
    # on S and T: the masses at s and t first, then the difference d = mu(S) - nu(S)
    total = mass(mu, S) + (mass(mu, T) if S != T else 0)
    nu_s, nu_t = (0, 0) if case == "outside" else (rng.randint(0, total), rng.randint(0, total))
    if case == "one block":
        nu_t = 0
    low, high = -min(mu[t], nu_s), min(mu[s], nu_t)
    d = None if case == "empty" else {"upper": high, "lower": low, "past upper": high + 1, "past lower": low - 1,
         "between": rng.randint(low, high), "other block": rng.randint(low, high), "outside": 0, "one block": 0}[case]
    if case == "empty":  # no nu mass on S, or on T
        d, nu_s, nu_t = rng.choice(((mass(mu, S), 0, nu_t), (-mass(mu, T), nu_s, 0)))
    rest = {S: mass(mu, S) - d - nu_s, T: mass(mu, T) + d - nu_t} if S != T else {S: total - nu_s}
    for b, left in rest.items():
        members = [u for u in range(n) if block[u] == b and u not in (s, t)]
        if left < 0 or (left and not members):
            return None
        nu.update(_spread(rng, left, members))
    nu[s] += nu_s
    nu[t] += nu_t
    if case == "other block":  # one unit moved from another block onto s
        others = [u for u in range(n) if block[u] not in (S, T) and nu[u]]
        if not others:
            return None
        nu[rng.choice(others)] -= 1
        nu[s] += 1
    return block, s, t, mu, nu


def test_the_closed_form_lifts_as_the_lp_and_max_flow():
    rng = random.Random("block-lift")
    pts = load_pts("".join(f"state x{i}\n" for i in range(8)))
    states = pts.states
    asked = dict.fromkeys(CASES, 0)
    lifted = dict.fromkeys(CASES, 0)
    for case in CASES:
        while asked[case] < 100:
            drawn = _draw(rng, case)
            if drawn is None:
                continue
            block, s, t, mu, nu = drawn
            assert sum(nu.values()) == UNITS and min(nu.values()) >= 0
            partners = {states[u]: {states[v] for v, b in enumerate(block) if b == block[u]} for u in range(len(block))}
            partners[states[s]].add(states[t])
            partners[states[t]].add(states[s])
            dists = [Distribution([(states[u], Fraction(w, UNITS)) for u, w in d.items()]) for d in (mu, nu)]
            steps = [(-1, "", tuple(u for u in d if d[u]), tuple(w for w in d.values() if w)) for d in (mu, nu)]
            got = bisim._lifts(block, s, t, *steps)
            assert got == bisim.lift_check(partners, *dists) == lift_by_max_flow(partners, *dists), (case, drawn)
            asked[case] += 1
            lifted[case] += got
    # at a bound the lift holds and one unit past it it fails, whatever else is drawn
    assert lifted["upper"] == asked["upper"] and lifted["lower"] == asked["lower"]
    assert lifted["past upper"] == lifted["past lower"] == lifted["other block"] == 0
    assert lifted["between"] == asked["between"] and lifted["one block"] == asked["one block"]
    assert 0 < lifted["empty"] < asked["empty"] and 0 < lifted["free"] < asked["free"]
    assert lifted["outside"] == asked["outside"]
