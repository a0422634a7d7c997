"""The one-pass parser against the two-pass one it replaced
(`tests/reference_parser.py`), in fixed-seed hypothesis runs: every corpus
spec, every golden root, the specs of `tests/genspecs.py`, terms nested at
the nesting bound, and mutated spec and term texts parse to the same terms
(the same objects, as terms are interned) or fail with the same diagnostics,
message, line and column, in the same order.

The one difference allowed: a rule line reports each of its sort and name
diagnostics once, where the reference repeats them for each action a `<A>`
rule stands for."""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ptsskit.parser import MAX_NESTING, ParseFailure, parse_spec, parse_term, try_parse_spec
from ptsskit.terms import DistVar, Sort, StateVar
from tests import reference_parser as reference
from tests.conftest import CORPUS
from tests.genspecs import format_safe_text, negative_free_text
from tests.test_golden_pts import cases

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

SPECS = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.ptss"))}
for k in range(12):
    SPECS[f"negative_free:{k}"], _ = negative_free_text(random.Random(f"oracle:{k}"))
    SPECS[f"format_safe:{k}"] = format_safe_text(random.Random(f"oracle:{k}"))

# rules with several errors, whose order the reference fixes (premises are
# resolved positive ones first, and an operator's arity before its sort)
RULES = ["rule r1: x -/a->, mu --a-> x |- +(x,y) --a-> mu", "rule r2: ^+(x) --a-> +(mu)",
         "rule r3: x -/c->, g(y) --<A>-> nu |- <A>.delta(x) --c-> ^+(nu, x)",
         "rule r4: a.oplus{1/3: mu, 1/3: delta(x)} --b-> oplus{1/2: delta(mu), 0/2: x}",
         "rule r5: x --tau->", "rule r6: x -/<A>->"]  # and an error at the end, past an arrow
SPECS.update((f"running+{rule[5:7]}", SPECS["running.ptss"] + rule + "\n") for rule in RULES)
# lines of blanks and comments, some after a character that is no blank
LINES = ["\t  # a comment after blanks", "\xa0# after a no-break space", "\x00#", "é # ²"]
SPECS.update((f"running+line{i}", line + "\n" + SPECS["running.ptss"]) for i, line in enumerate(LINES))

ROOTS = sorted({(argv[1].rsplit("/", 1)[-1], argv[i + 1]) for argv in cases().values()
                for i, arg in enumerate(argv) if arg == "--root"})
ROOTS += [(f"negative_free:{k}", r) for k in range(12) for r in negative_free_text(random.Random(f"oracle:{k}"))[1]]

# the sort and name diagnostics, which the reference repeats for each action of a `<A>` rule
RULE_MESSAGE = re.compile(
    r"unknown operator |operator .* expects |term has sort |weights sum to |weights must be positive"
    r"|action .* cannot be used as a term|variable .* used at sorts |unknown action |no prefix operator declared"
    r"|action metavariable <A> |duplicate rule name "
)


def _once(diags):
    return [d for i, d in enumerate(diags) if not (RULE_MESSAGE.match(d.message) and d in diags[:i])]


def _same(new, old):
    """Terms are interned, so the parsers must give one object; variables are not."""
    if isinstance(old, (StateVar, DistVar)):
        return type(new) is type(old) and new == old
    return new is old


def _shape(rule):
    return rule.name, rule.label, [p[1] for p in rule.pos_premises + rule.neg_premises], len(rule.pos_premises)


def _terms(rule):
    return [rule.source, rule.target, *(t for s, _, u in rule.pos_premises for t in (s, u)),
            *(s for s, _ in rule.neg_premises)]


def _same_rules(new, old):
    return len(new) == len(old) and all(
        _shape(r) == _shape(s) and all(_same(a, b) for a, b in zip(_terms(r), _terms(s))) for r, s in zip(new, old))


def check_spec(text):
    new, new_diags = try_parse_spec(text)
    old, old_diags = reference.try_parse_spec(text)
    assert new_diags == _once(old_diags)
    assert (new is None) == (old is None)
    if new is not None:
        assert (new.name, new.signature) == (old.name, old.signature)
        assert _same_rules(new.rules, old.rules)
    return new


def _parsed(parse, text, sig, expected):
    try:
        return parse(text, sig, expected)
    except ParseFailure as exc:
        return exc.diagnostics


def check_term(text, sig, expected=None):
    new, old = _parsed(parse_term, text, sig, expected), _parsed(reference.parse_term, text, sig, expected)
    if isinstance(old, list):
        assert new == old
    else:
        assert _same(new, old)
    return new


@pytest.mark.parametrize("name", sorted(SPECS))
def test_specs_parse_as_before(name):
    assert (check_spec(SPECS[name]) is None) == (name.startswith("running+") and name != "running+line0")


@pytest.mark.parametrize("spec, root", ROOTS)
def test_roots_parse_as_before(spec, root):
    assert not isinstance(check_term(root, parse_spec(SPECS[spec]).signature), list)


# (opening, closing, levels) of a term form; its operand sits that many levels in
SHAPES = [("(", ")", 1), ("a.delta(", ")", 2), ("^a.", "", 1), ("+(0,", ")", 2), ("^+(^0,", ")", 2),
          ("oplus{1:", "}", 2), ("<A>.", "", 1), ("delta(", ")", 1)]


def _nested(opening, closing, levels, depth):
    """A text whose innermost term sits `depth` levels deep."""
    n, extra = divmod(depth, levels)
    return "(" * extra + opening * n + "0" + closing * n + ")" * extra


@pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("shape", SHAPES, ids=[s[0] for s in SHAPES])
def test_terms_at_the_nesting_bound_parse_as_before(shape, depth):
    sig = parse_spec(SPECS["running.ptss"]).signature
    text = _nested(*shape, depth)
    check_term(text, sig)
    check_spec(SPECS["running.ptss"] + f"rule deep: {text} --a-> mu\n")


NOISE = ["", " ", "(", ")", "{", "}", ",", ":", ".", "^", "@", "/", "+", "-", "|-", "<A>", "<A", "--a->", "-/b->",
         "--<A>->", "->", "0", "1/2", "1/0", "2", "x", "mu", "delta", "oplus{", "a.", "tau", "g", "f(", "#", "\n",
         "rule r: ", "op g : s -> s", "op pre<A> : d -> s", "actions a, tau", "ptss q", "²", "½", "١", "é", "\x0b",
         "\xa0", "\t"]


@st.composite
def mutated(draw, texts):
    """One of `texts` with up to four slices deleted, duplicated or replaced by noise."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 10)))
        text = text[:i] + draw(st.sampled_from(["", text[i:j] * 2, *NOISE])) + text[j:]
    return text


@SETTINGS
@given(text=mutated(sorted(SPECS.values())))
def test_mutated_specs_parse_as_before(text):
    check_spec(text)


SIG = parse_spec(SPECS["running.ptss"]).signature
TERMS = sorted({root for _, root in ROOTS} | {"x", "+(x,mu)", "^+(mu,delta(x))", "oplus{1/2:mu,1/2:delta(y)}",
                                               "<A>.mu", "g(0)", "a", "+(0)", "^a.mu", "a.oplus{1:delta(0)}"})


@SETTINGS
@given(text=mutated(TERMS), expected=st.sampled_from([None, Sort.STATE, Sort.DIST]))
def test_mutated_terms_parse_as_before(text, expected):
    check_term(text, SIG, expected)


@pytest.mark.parametrize("text", ["0()", "+()"])
def test_empty_parentheses_parse_as_before(text):
    # a constant reads as without them; any other operator reports its arity
    new = check_term(text, SIG)
    if text == "0()":
        assert new is parse_term("0", SIG)
    else:
        assert [d.message for d in new] == ["operator + expects 2 arguments, got 0"]


# every head form that the term reader tells apart after `^`: an `<A>.` or a
# name prefix, an operator with and without parentheses, a name that cannot
# start a prefix, and no name at all
LIFTED = ["^<A>.mu", "^a.mu", "^+(mu,mu)", "^+", "^0", "^g", "^x", "^+.mu", "^(", "^"]


@pytest.mark.parametrize("expected", [None, Sort.STATE, Sort.DIST], ids=["none", "s", "d"])
@pytest.mark.parametrize("text", LIFTED)
def test_lifted_heads_parse_as_before(text, expected):
    check_term(text, SIG, expected)


@pytest.mark.parametrize("text", LIFTED)
def test_lifted_heads_in_rules_parse_as_before(text):
    for rule in (f"x --a-> {text}", f"{text} --a-> mu", f"x --<A>-> {text}"):
        check_spec(SPECS["running.ptss"] + f"rule lifted: {rule}\n")
