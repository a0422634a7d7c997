"""Metamorphic relations of the deciders: checks that need no oracle (Chen,
Cheung and Yiu, "Metamorphic testing: a new approach for generating next
test cases", 1998; Segura et al., "A survey on metamorphic testing", TSE
2016).  A kind's relation, read as a set of named pairs (for rooted, the
pairs with no rooted witness), is checked against itself under
transformations whose effect the definitions fix:

* copy: in the union of a PTS with a renamed copy, each state is related to
  its copy, and the relation on the originals is unchanged;
* order: shuffling the `.pts` lines (the states' lines first, as the format
  asks) keeps the relation;
* quotient, for the kinds with classes: beside its quotient by the kind's
  classes (each class's non-inert transitions, lifted to classes and
  deduplicated), each state is related to its class and no two classes are
  related.

Fixed-seed systems: the plain and stuttered families of
`tests/test_refine_oracle.py` and its not-transitive system, the tau-heavy
family of `tests/test_partition_oracle.py` with the draws on which its
pbranching relation once differed from the coarsest partition's, and the
corpus `.pts` files.

The engine's PTS is checked on the spec side, where both runs finish:

* roots: what a root reaches in the PTS of it and other roots is the PTS
  reachable from it alone;
* renaming: renaming the operators and the actions other than `tau`, and
  reordering the rules, gives the same PTS up to the renaming, and a run
  stops with an error exactly where the other does.

Fixed-seed specs of `tests/genspecs.py` (the grouped ones with premise
sources that the rules build), the specs of `tests/test_cli.py` whose
answers once hung on the other roots, and the corpus `.ptss` files."""

import random
import re
from fractions import Fraction

import pytest

from ptsskit.bisim import KINDS, decide
from ptsskit.engine import DomainBound, load_pts, reachable_pts
from ptsskit.errors import BoundError
from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import render_term
from tests.conftest import CORPUS
from tests.genspecs import LEAF_TERMS, format_safe_text, grouped_text, negative_free_text
from tests.reference_refine import is_equivalence
from tests.test_cli import BUILT_SOURCE_SPECS, OPEN_SOURCE_SPEC
from tests.test_golden_pts import SPEC_ROOTS
from tests.test_partition_oracle import tau_heavy_pts
from tests.test_refine_oracle import NOT_TRANSITIVE, plain_pts, random_pts, stuttered_pts


def _systems():
    yield from (plain_pts(6, random_pts(random.Random(f"metamorphic:plain:{seed}"), 6)) for seed in range(80))
    yield from (stuttered_pts(3, random_pts(random.Random(f"metamorphic:stuttered:{seed}"), 3)) for seed in range(20))
    for seed in [*range(200), 2611, 4194, 4367]:
        yield plain_pts(4, tau_heavy_pts(random.Random(f"components:tau_heavy:{seed}")))
    yield load_pts("".join(f"state r{i}\n" for i in range(4)) + NOT_TRANSITIVE)
    yield from (load_pts(path.read_text()) for path in sorted(CORPUS.glob("*.pts")))


SYSTEMS = list(_systems())


def _lines(pts, rename=str):
    """The `.pts` lines of `pts`, its states' lines first, each name passed through `rename`."""
    states = [f"state {rename(render_term(s))}" for s in pts.states]
    trans = [
        f"trans {rename(render_term(tr.source))} --{tr.label}-> {{ "
        + ", ".join(f"{rename(render_term(u))}: {p}" for u, p in tr.target.items()) + " }"
        for tr in pts.transitions
    ]
    return states, trans


def _load(states, trans):
    return load_pts("\n".join([*states, *trans]) + "\n")


def _relation(kind, pts):
    """The `kind` relation on `pts` as a set of named pairs."""
    decision, name = decide(kind, pts), render_term
    if kind == "rooted":
        return {(name(s), name(t)) for s in pts.states for t in pts.states if decision.related(s, t)}
    return {(name(s), name(t)) for block in decision.classes() for s in block for t in block}


@pytest.mark.parametrize("kind", KINDS)
def test_a_state_is_related_to_its_renamed_copy(kind):
    for pts in SYSTEMS:
        names = [render_term(s) for s in pts.states]
        states, trans = _lines(pts)
        copy_states, copy_trans = _lines(pts, "copy_{}".format)
        union = _relation(kind, _load(states + copy_states, trans + copy_trans))
        assert all((s, f"copy_{s}") in union for s in names), names
        assert {(s, t) for s, t in union if s in names and t in names} == _relation(kind, pts), names


@pytest.mark.parametrize("kind", KINDS)
def test_the_order_of_the_lines_keeps_the_relation(kind):
    rng = random.Random(f"metamorphic:order:{kind}")
    for pts in SYSTEMS:
        states, trans = _lines(pts)
        rng.shuffle(states)
        rng.shuffle(trans)
        assert _relation(kind, _load(states, trans)) == _relation(kind, pts), states


def _quotient_lines(pts, classes):
    """The `.pts` lines of the quotient of `pts` by `classes`, the class
    `k<i>` for the i-th: each class's transitions lifted to classes, less
    the inert ones (tau into its own class) and the repeats."""
    block = {s: i for i, members in enumerate(classes) for s in members}
    states = [f"state k{i}" for i in range(len(classes))]
    trans = {}
    for tr in pts.transitions:
        masses = {}
        for u, p in tr.target.items():
            masses[block[u]] = masses.get(block[u], Fraction(0)) + p
        if not (tr.label == "tau" and set(masses) == {block[tr.source]}):
            entries = ", ".join(f"k{b}: {p}" for b, p in sorted(masses.items()))
            trans[f"trans k{block[tr.source]} --{tr.label}-> {{ {entries} }}"] = None
    return states, list(trans)


@pytest.mark.parametrize("kind", ["branching", "pbranching"])
def test_a_state_is_related_to_its_class_in_the_quotient(kind):
    for pts in SYSTEMS:
        decision = decide(kind, pts)
        assert is_equivalence(decision.relation)
        classes = decision.classes()
        states, trans = _lines(pts)
        k_states, k_trans = _quotient_lines(pts, classes)
        union = _relation(kind, _load(states + k_states, trans + k_trans))
        assert all((render_term(s), f"k{i}") in union for i, members in enumerate(classes) for s in members)
        assert all((f"k{i}", f"k{j}") not in union for i in range(len(classes)) for j in range(len(classes)) if i != j)


# ---------------------------------------------------------------------------
# Spec side

def _specs():
    """(text, root texts) of the fixed-seed specs and the corpus specs."""
    rng = random.Random("metamorphic:specs")
    for _ in range(80):
        yield grouped_text(rng)
    for _ in range(30):
        yield negative_free_text(rng)
    for _ in range(30):
        yield format_safe_text(rng), [f"k0({rng.choice(LEAF_TERMS)})", f"k0(k0({rng.choice(LEAF_TERMS)}))"]
    yield OPEN_SOURCE_SPEC, ["f(0)", "a.delta(0)"]
    yield from ((text, ["f(0)", "g(0)"]) for text in BUILT_SOURCE_SPECS.values())
    yield from (((CORPUS / name).read_text(), roots) for name, roots in sorted(SPEC_ROOTS.items()))


SPECS = list(_specs())


def _pts(text, roots):
    """The transitions of the PTS reachable from `roots` as texts, or None if the run stops."""
    spec = parse_spec(text)
    try:
        pts = reachable_pts(spec, DomainBound(tuple(parse_term(r, spec.signature) for r in roots), max_states=256))
    except BoundError:
        return None
    return {(render_term(tr.source), tr.label, frozenset((render_term(u), p) for u, p in tr.target.items()))
            for tr in pts.transitions}


def _reach(transitions, root):
    """The transitions reachable from `root`."""
    by_source = {}
    for tr in transitions:
        by_source.setdefault(tr[0], []).append(tr)
    seen, todo, reached = {root}, [root], set()
    while todo:
        for tr in by_source.get(todo.pop(), ()):
            reached.add(tr)
            todo += [u for u, _ in tr[2] if u not in seen]
            seen.update(u for u, _ in tr[2])
    return reached


def test_a_root_reaches_what_it_reaches_alone():
    checked = 0
    for text, roots in SPECS:
        together = _pts(text, roots)
        for root in roots:
            alone = _pts(text, [root]) if together is not None else None
            if alone is not None:
                assert _reach(together, root) == alone, (text, roots, root)
                checked += 1
    assert checked >= 250


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\+")


def _renaming(text):
    """Fresh names for the spec's operators but the prefix family, and for its actions but tau."""
    ops = [name for name in re.findall(r"^op (\S+) :", text, re.M) if name != "pre<A>"]
    actions = [a.strip() for a in re.search(r"^actions (.*)$", text, re.M)[1].split(",") if a.strip() != "tau"]
    return {**{name: f"op_{i}" for i, name in enumerate(ops)}, **{a: f"act_{i}" for i, a in enumerate(actions)}}


def _rename(text, names):
    return _NAME.sub(lambda m: names.get(m[0], m[0]), text)


def test_renaming_and_reordering_a_spec_renames_its_pts():
    rng = random.Random("metamorphic:renaming")
    finished = 0
    for text, roots in SPECS:
        names = _renaming(text)
        back = {new: old for old, new in names.items()}
        lines = _rename(text, names).splitlines()
        at = [i for i, line in enumerate(lines) if line.startswith("rule ")]
        for i, line in zip(at, rng.sample([lines[i] for i in at], len(at))):
            lines[i] = line
        renamed = _pts("\n".join(lines) + "\n", [_rename(r, names) for r in roots])
        pts = _pts(text, roots)
        assert (renamed is None) == (pts is None), text
        if pts is not None:
            assert {(_rename(s, back), _rename(a, back), frozenset((_rename(u, back), p) for u, p in target))
                    for s, a, target in renamed} == pts, text
            finished += 1
    assert finished >= 100
