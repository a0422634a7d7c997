"""`stable-model`, `pts` and `bisim` through `cli.main` against the reference
oracles (ROADMAP item 17, a differential run in the sense of McKeeman,
"Differential testing for software", 1998).  On fixed-seed negative-free
generated specs and roots, and on fixed-seed specs with negative premises,
`stable-model --json` must give the model of `tests/reference_engine.stable_model`,
or stop with its error.  On the negative-free specs, the `pts` text must be
the PTS reached in that model, and the `bisim` verdict and classes of every
kind those of `tests/reference_refine` on that PTS, with the witness of a
branching or rooted NO the first challenge the reference's per-pair loops
leave unmatched.
"""

import collections
import functools
import itertools
import json
import random

from ptsskit.bisim import KINDS, _index
from ptsskit.cli import main
from ptsskit.distributions import evaluate
from ptsskit.engine import PTS, DomainBound, PtsTransition, export_pts
from ptsskit.errors import PtssError
from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import render_term
from tests import reference_engine
from tests.conftest import CORPUS
from tests.genspecs import grouped_text, negative_free_text
from tests.reference_lp import lift_by_max_flow
from tests.reference_refine import (
    branching_bisim,
    branching_check,
    is_equivalence,
    numbered,
    prob_branching_bisim,
    rooted_bisim,
    rooted_challenge,
)

SEEDS = range(150)
GROUPED = 120  # grouped specs drawn, of which those with a negative premise are run


def oracle_pts(text, roots):
    """The PTS that the reference model's certain transitions reach from `roots`."""
    spec = parse_spec(text)
    roots = tuple(parse_term(r, spec.signature) for r in roots)
    model = reference_engine.stable_model(spec, DomainBound(roots))
    assert model.converged and model.is_two_valued  # no negative premise
    states, transitions, todo = set(roots), [], list(roots)
    while todo:
        s = todo.pop()
        for tr in model.ct:
            if tr.source == s:
                target = evaluate(tr.target)
                transitions.append(PtsTransition(s, tr.label, target))
                todo += [u for u in target.support if u not in states]
                states.update(target.support)
    return PTS(tuple(states), tuple(transitions)), roots


def classes(pts, rel):
    """Each state not yet listed with its partners, in state order, as `bisim` prints them."""
    seen, out = set(), []
    for s in pts.states:
        if s not in seen:
            block = [u for u in pts.states if u == s or rel.related(s, u)]
            seen.update(block)
            out.append(block)
    return out


def expected_bisim(pts, kind, s, t, relations):
    """Whether `bisim` relates s and t, and the lines it prints, from the
    reference relations; None for a pbranching NO's witness line, which no
    reference loop gives."""
    rel = relations[kind]
    lines = [] if kind == "rooted" else ["class: " + " ".join(map(render_term, block)) for block in classes(pts, rel)]
    related = rel.related(s, t)
    lines.append(f"{kind}: {render_term(s)} ~ {render_term(t)}: {'YES' if related else 'NO'}")
    if related or kind == "pbranching":
        return related, lines + [None] * (not related)
    if kind == "rooted":  # the initial steps, lifted against the branching relation
        witness = rooted_challenge(pts, s, t, functools.partial(lift_by_max_flow, relations["branching"].table))
    else:  # a challenge unmatched even with the pair related
        ix = _index(pts)
        check = branching_check(pts, numbered(ix, lambda u, v: rel.related(u, v) or {u, v} == {s, t}))
        witness = next((x, tr) for x, y in ((s, t), (t, s)) if (tr := check(ix.num[x], ix.num[y])) is not None)
    return related, lines + [f"witness: unmatched challenge {witness[1]!r}"]


def test_pts_and_bisim_agree_with_the_reference_oracles(tmp_path, capsys):
    answered = 0
    for seed in SEEDS:
        text, roots = negative_free_text(random.Random(f"cli-oracle:{seed}"))
        spec = tmp_path / f"gen{seed}.ptss"
        spec.write_text(text)
        root_args = [arg for r in roots for arg in ("--root", r)]
        try:
            pts, _ = oracle_pts(text, roots)
        except PtssError as exc:  # a bound: the command stops as the oracle does
            assert main(["pts", str(spec), *root_args]) == exc.exit_code
            assert capsys.readouterr().err == "\n".join(exc.lines()) + "\n"
            continue
        assert main(["pts", str(spec), *root_args]) == 0
        assert capsys.readouterr().out == export_pts(pts), seed
        relations = {"branching": branching_bisim(pts), "pbranching": prob_branching_bisim(pts),
                     "rooted": rooted_bisim(pts)}
        if not is_equivalence(relations["pbranching"]):
            continue
        # every ordered pair of reached states: as roots beside the spec's, they reach no other state
        for kind, s, t in itertools.product(KINDS, pts.states, pts.states):
            related, lines = expected_bisim(pts, kind, s, t, relations)
            argv = ["bisim", str(spec), "--kind", kind, render_term(s), render_term(t), *root_args]
            assert main(argv) == (0 if related else 1)
            out = capsys.readouterr().out.splitlines()
            assert len(out) == len(lines) and all(want in (None, got) for want, got in zip(lines, out)), argv
            assert None not in lines or out[-1].startswith("witness: unmatched challenge "), argv
            answered += 1
    assert answered >= 3500


def stable_model_cases():
    """(spec text, roots, bounds): the negative-free specs above, at the
    default bounds; the grouped specs with a negative premise, at the bounds
    of the engine's own oracle test, which are stratified, so complete unless
    a rule cannot be instantiated; and the corpus specs whose model settles
    late or stays three-valued, also cut off before it converges."""
    for name, root, bounds in [("delayed_g.ptss", "g", {}), ("incomplete_f.ptss", "f", {}),
                               ("incomplete_f.ptss", "f", {"max_iterations": 1})]:
        yield (CORPUS / name).read_text(), [root], bounds
    for seed in SEEDS:
        yield *negative_free_text(random.Random(f"cli-oracle:{seed}")), {}
    rng = random.Random("cli-oracle:grouped")
    for _ in range(GROUPED):
        text, roots = grouped_text(rng)
        if "-/" in text:
            yield text, roots, {"max_depth": 8, "max_states": 128}


def test_stable_model_agrees_with_the_reference_engine(tmp_path, capsys):
    outcomes = []
    for i, (text, roots, bounds) in enumerate(stable_model_cases()):
        spec_path = tmp_path / f"gen{i}.ptss"
        spec_path.write_text(text)
        flags = [arg for field, value in bounds.items() for arg in (f"--{field.replace('_', '-')}", str(value))]
        argv = ["stable-model", str(spec_path), *(arg for r in roots for arg in ("--root", r)), *flags, "--json"]
        spec = parse_spec(text)
        try:
            model = reference_engine.stable_model(spec, DomainBound(tuple(parse_term(r, spec.signature) for r in roots),
                                                                     **bounds))
        except PtssError as exc:  # the command stops with the reference's error
            assert main(argv) == exc.exit_code, argv
            assert capsys.readouterr() == ("", "\n".join(exc.lines()) + "\n"), argv
            outcomes.append(type(exc).__name__)
            continue
        complete = model.converged and model.ct == model.pt
        assert main(argv) == (0 if complete else 1 if model.converged else 3), argv
        assert json.loads(capsys.readouterr().out) == {
            "certain": sorted(repr(tr) for tr in model.ct),
            "possible_only": sorted(repr(tr) for tr in model.pt - model.ct),
            "iterations": model.iterations, "converged": model.converged, "complete": complete}, argv
        outcomes.append("complete" if complete else "incomplete" if model.converged else "unconverged")
    # every outcome occurs: a model complete, three-valued or cut off, and a rule that cannot be instantiated
    seen = collections.Counter(outcomes)
    assert seen["complete"] >= 200 and seen["RuleInstantiationError"] >= 10, seen
    assert seen["incomplete"] == seen["unconverged"] == 1, seen
