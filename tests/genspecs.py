"""Random specification generators for the property suites.

Two flavours: negative-premise-free specs (used to check that such specs are
always complete) and format-conforming specs (used to probe the congruence
theorem empirically).  Both are deterministic given the seed.
"""

import random

from ptsskit.parser import PTSS, parse_spec, parse_term
from ptsskit.terms import Term

BASE_DECLS = [
    "actions a, b, tau",
    "op 0 : -> s",
    "op pre<A> : d -> s",
    "op + : s s -> s",
]

BASE_RULES = [
    "rule prefix: <A>.mu --<A>-> mu",
    "rule sum_l: x --<A>-> mu |- +(x,y) --<A>-> mu",
    "rule sum_r: y --<A>-> mu |- +(x,y) --<A>-> mu",
]

LEAF_TERMS = ["0", "a.delta(0)", "b.delta(0)", "tau.delta(0)", "+(a.delta(0),b.delta(0))"]


def random_negative_free_spec(rng: random.Random) -> tuple[PTSS, list[Term]]:
    """A spec with positive premises only, plus small root terms for it."""
    text, roots = negative_free_text(rng)
    spec = parse_spec(text)
    return spec, [parse_term(r, spec.signature) for r in roots]


def negative_free_text(rng: random.Random) -> tuple[str, list[str]]:
    """The text of `random_negative_free_spec` and of its roots."""
    n_ops = rng.randint(1, 3)
    lines = ["ptss gen"] + list(BASE_DECLS)
    for i in range(n_ops):
        lines.append(f"op k{i} : s -> s")
    rules = list(BASE_RULES)
    for i in range(n_ops):
        lab = rng.choice(["a", "b", "tau"])
        out = rng.choice(["a", "b", "tau"])
        tgt = rng.choice(["mu", f"^k{i}(mu)", "delta(0)", "^0", f"^k{i}(delta(0))"])
        shape = rng.randrange(3)
        if shape == 0:
            rules.append(f"rule r{i}: k{i}(x) --{out}-> delta(0)")
        elif shape == 1:
            rules.append(f"rule r{i}: x --{lab}-> mu |- k{i}(x) --{out}-> {tgt}")
        else:
            rules.append(
                f"rule r{i}: x --{lab}-> mu, y --{lab}-> nu |- k{i}(+(x,y)) --{out}-> mu"
            )
    return "\n".join(lines + rules) + "\n", [f"k0({rng.choice(LEAF_TERMS)})", rng.choice(LEAF_TERMS)]


def random_format_safe_spec(rng: random.Random) -> PTSS:
    """A format-conforming spec: wild positions always get patience rules and
    are only tested by non-tau premises."""
    return parse_spec(format_safe_text(rng))


def format_safe_text(rng: random.Random) -> str:
    """The text of `random_format_safe_spec`."""
    n_ops = rng.randint(1, 2)
    lines = ["ptss gensafe"] + list(BASE_DECLS)
    for i in range(n_ops):
        lines.append(f"op k{i} : s -> s")
    rules = list(BASE_RULES)
    for i in range(n_ops):
        visible = rng.choice(["a", "b"])
        out = rng.choice(["a", "b"])
        shape = rng.randrange(4)
        if shape == 0:
            # axiom, possibly re-wrapping the argument under a Dirac
            tgt = rng.choice(["delta(0)", "^0", f"^k{i}(delta(x))", "delta(k%d(x))" % i])
            rules.append(f"rule r{i}: k{i}(x) --{out}-> {tgt}")
        elif shape == 1:
            # tame test: target is the bare premise variable
            lab = rng.choice(["a", "b", "tau"])
            rules.append(f"rule r{i}: x --{lab}-> mu |- k{i}(x) --{out}-> mu")
        elif shape == 2:
            # wild position with patience rule and a non-tau test
            rules.append(f"rule r{i}: x --{visible}-> mu |- k{i}(x) --{out}-> ^k{i}(mu)")
            rules.append(f"rule p{i}: x --tau-> mu |- k{i}(x) --tau-> ^k{i}(mu)")
        else:
            # guarded copy into a Dirac; no premise, nothing wild
            rules.append(f"rule r{i}: k{i}(x) --{out}-> delta(+(k{i}(x),0))")
    return "\n".join(lines + rules) + "\n"


def shallow_contexts(spec: PTSS, max_count: int = 4) -> list[Term]:
    """One- and two-deep one-hole contexts over the spec's unary operators."""
    names = [
        f.name
        for f in spec.signature.state_ops
        if f.rank == 1 and f.prefix_action is None and f.arg_sorts[0].value == "s"
    ]
    texts = [f"{n}(_)" for n in names]
    texts += ["+(_,0)"]
    texts += [f"{n}(+(_,0))" for n in names]
    texts += [f"{m}({n}(_))" for m in names for n in names]
    return [parse_term(t, spec.signature) for t in texts[:max_count]]


# premise and conclusion shapes for rules that share the source `k0(x)`; a
# premise binds the variables it names, except a negative one
GROUP_PREMISES = [
    "x --{l}-> mu",  # bound source, target a variable still unbound
    "x --{l}-> delta(y)",  # bound source, target matched
    "+(x,0) --{l}-> mu",  # a source the rule builds, which may lie outside the domain
    "x -/{l}->",  # negative premise
    "+(x,0) -/{l}->",  # a negative premise whose source the rule builds
]
GROUP_TARGETS = ["mu", "delta(y)", "^k0(mu)", "delta(k0(x))", "^+(mu,delta(x))", "delta(0)"]
# rules that cannot be instantiated: nothing binds nu, and z is open in a
# negative premise's source, a positive one's and an argument of one's
BROKEN_RULES = [
    "x --a-> mu |- k0(x) --b-> nu",
    "z -/a-> |- k0(x) --a-> delta(0)",
    "z --a-> mu |- k0(x) --b-> mu",
    "+(x,z) --b-> mu |- k0(x) --a-> mu",
]


def grouped_text(rng: random.Random) -> tuple[str, list[str]]:
    """A spec whose rules share one source pattern but differ in their
    premises, negative premises and conclusion targets, and roots for it.
    One spec in four has a rule among them that cannot be instantiated."""
    lines = ["ptss grouped"] + list(BASE_DECLS) + ["op k0 : s -> s"]
    rules = []
    for _ in range(rng.randint(2, 4)):
        premises = [p.format(l=rng.choice(["a", "b", "tau"])) for p in rng.sample(GROUP_PREMISES, rng.randint(0, 2))]
        bound = {v for p in premises if "-/" not in p for v in ("y", "mu") if v in p}
        target = rng.choice([t for t in GROUP_TARGETS if all(v in bound for v in ("y", "mu") if v in t)])
        conclusion = f"k0(x) --{rng.choice('ab')}-> {target}"
        rules.append(f"{', '.join(premises)} |- {conclusion}" if premises else conclusion)
    if rng.random() < 0.25:
        rules.insert(rng.randrange(len(rules) + 1), rng.choice(BROKEN_RULES))
    rules = BASE_RULES + [f"rule g{i}: {rule}" for i, rule in enumerate(rules)]
    roots = [f"k0({rng.choice(LEAF_TERMS)})", f"k0(k0({rng.choice(LEAF_TERMS)}))", rng.choice(LEAF_TERMS)]
    return "\n".join(lines + rules) + "\n", roots


def random_grouped_spec(rng: random.Random) -> tuple[PTSS, list[Term]]:
    """`grouped_text`, parsed."""
    text, roots = grouped_text(rng)
    spec = parse_spec(text)
    return spec, [parse_term(r, spec.signature) for r in roots]
