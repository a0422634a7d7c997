"""The format checker against the one it replaced (`tests/reference_format.py`)
on fixed seeds: every corpus spec, 3,000 specs of each `tests/genspecs.py`
generator, and 4,000 corpus mutants whose rules swap conclusion targets give
the same report, nesting graph, wildness and patience map.  Every
premise-target variable and wild source variable is w-nested there
(condition 2c), by the reference's `is_w_nested_occurrence`.  The 13,011 texts hold 4,977 distinct ones, and each of
those is checked once."""

import random

import pytest

from ptsskit.format_check import _nesting_graph, _tables, check_format, classify_wild
from ptsskit.parser import parse_spec
from ptsskit.terms import Apply, DistVar, StateVar, variables
from tests import reference_format as reference
from tests.conftest import CORPUS
from tests.genspecs import format_safe_text, grouped_text, negative_free_text

CORPUS_TEXTS = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.ptss"))}
GENERATORS = {
    "negative_free": lambda rng: negative_free_text(rng)[0],
    "format_safe": format_safe_text,
    "grouped": lambda rng: grouped_text(rng)[0],
}
SEEDS = 3000
MUTANTS = 4000
CHUNKS = 8


def swapped_targets(text: str, rng: random.Random) -> str:
    """`text` with the conclusion targets of two of its rules swapped."""
    lines = text.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("rule ")]
    i, j = rng.sample(rules, 2)
    (head_i, tgt_i), (head_j, tgt_j) = (lines[i].rsplit("-> ", 1), lines[j].rsplit("-> ", 1))
    lines[i], lines[j] = f"{head_i}-> {tgt_j}", f"{head_j}-> {tgt_i}"
    return "\n".join(lines) + "\n"


def texts() -> list[str]:
    out = list(CORPUS_TEXTS.values())
    for name, generate in GENERATORS.items():
        out += [generate(random.Random(f"format-oracle:{name}:{k}")) for k in range(SEEDS)]
    rng = random.Random("format-oracle:mutants")
    names = [name for name, text in sorted(CORPUS_TEXTS.items()) if text.count("\nrule ") >= 2]
    out += [swapped_targets(CORPUS_TEXTS[rng.choice(names)], rng) for _ in range(MUTANTS)]
    return out


TEXTS = texts()
DISTINCT = list(dict.fromkeys(TEXTS))  # the checkers are deterministic, so each text is checked once


def check(spec) -> None:
    graph = reference.NestingGraph(*_nesting_graph(spec, _tables(spec)))
    assert graph == reference.build_nesting_graph(spec)
    wild = classify_wild(spec)
    assert wild == reference.classify_wild(spec, graph)
    new, old = check_format(spec), reference.check_format(spec)
    assert dict(new.patience) == reference.detect_patience_rules(spec)
    assert new == old
    for rule in spec.rules:
        # condition 2c, which check_format does not test, holds by construction:
        # premise-target variables and wild source variables are w-nested
        restricted = set().union(*(variables(tgt) for _, _, tgt in rule.pos_premises))
        if isinstance(rule.source, Apply):
            f = rule.source.symbol.name
            restricted.update(
                a.name for i, a in enumerate(rule.source.args, start=1)
                if isinstance(a, (StateVar, DistVar)) and wild.get((f, i), False)
            )
        for var in variables(rule.target):
            assert reference.is_w_nested_occurrence(rule.target, var, wild) or var not in restricted, (rule.name, var)


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_checker_agrees_with_reference(chunk):
    for text in DISTINCT[chunk::CHUNKS]:
        check(parse_spec(text))


def test_cross_check_covers_ten_thousand_specs():
    assert len(TEXTS) == len(CORPUS_TEXTS) + 3 * SEEDS + MUTANTS >= 10_000
