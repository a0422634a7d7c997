"""The one-pass front end against the reader it replaced
(`tests/reference_front.py`), in fixed-seed hypothesis runs: random lines lex
to the same tokens and diagnostics, random spans read to the same weight or
diagnostics, random entries make the same distribution or error, and mutated
`.pts` texts load to the same states, transition order and `export_pts`
text, or fail with the same diagnostics.  A label that is not an action
name, which the reader now rejects, is checked apart."""

import json
import random
import re
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ptsskit.distributions import Distribution, EvalError
from ptsskit.engine import export_pts, load_pts, opaque_state
from ptsskit.parser import ParseFailure, _Cursor, read_weight
from tests import reference_front as reference
from tests.conftest import CORPUS
from tests.test_golden_pts import GOLDEN
from tests.test_refine_oracle import random_pts, stuttered_text

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

DIGIT_RUNS = ["7" * 4300, "7" * 4301]
# a newline can reach the lexer in a `--root` text; \x0b and \x1c end a line
# for str.splitlines; `١` is a digit to `\d` and to int(), and `²` and `½` are
# not to `\d`, though `²` is to str.isdigit() and `½` to str.isnumeric()
ODD = ["\n", "\x0b", "\x1c", "١", "²", "½", "\t", " ", "é", "\x00", "#"]
PIECES = ["0", "1", "2", "12", "007", "/", " ", "-", "+", ".", "e", ":", ",", "a", "x_1", "(", ")", "{", "}",
          "--", "->", "-/", "<A>", "|-", "^", "@", "--a->", "-/tau->", *ODD]
LINE = st.one_of(
    st.lists(st.sampled_from(PIECES + DIGIT_RUNS), max_size=10).map("".join),
    st.text(alphabet="(){}<>,.:;|-+/_#=~ \t01axyz" + "".join(ODD), max_size=30),
)


# the token kinds of the reference lexer, by the whole text of a token
KINDS = [("ARROW", r"--.+->"), ("NARROW", r"-/.+->"), ("RARROW", "->"), ("TURNSTILE", r"\|-"), ("METAVAR", "<A>"),
         ("IDENT", "[A-Za-z_][A-Za-z0-9_]*"), ("INT", r"\d+"), ("PUNCT", "[(){},:.^/+@]")]


def _lexed(line, pos, end):
    """The tokens of line[pos:end] as the reference lexer gives them: kind,
    text (an arrow's is its label), line and column."""
    diags = []
    cur = _Cursor(line, 7, diags, pos, end)
    tokens = []
    for k, tok in enumerate(cur.toks[:-1]):
        kind = next(kind for kind, pattern in KINDS if re.fullmatch(pattern, tok))
        tokens.append((kind, tok[2:-2] if kind in ("ARROW", "NARROW") else tok, 7, cur.col(k)))
    return tokens, diags


@SETTINGS
@given(line=LINE, start=st.integers(0, 3), cut=st.integers(0, 3))
def test_lines_lex_as_before(line, start, cut):
    for pos, end in ((0, None), (min(start, len(line)), max(min(start, len(line)), len(line) - cut))):
        old_diags = []
        old = [tuple(tok) for tok in reference.lex_line(line, 7, old_diags, pos, end)]
        assert _lexed(line, pos, end) == (old, old_diags)


NUMBER = st.sampled_from(["", "0", "1", "00", "12", "007", "١", "1\x0b", *DIGIT_RUNS])
WEIGHT = st.one_of(
    st.lists(st.sampled_from([p for p in PIECES if p != "#"] + DIGIT_RUNS), max_size=6).map("".join),
    st.builds("{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), NUMBER, st.sampled_from(["", "/", " / ", "/-"]), NUMBER),
)


@SETTINGS
@given(span=WEIGHT)
@example(span=DIGIT_RUNS[1])
@example(span=f"{DIGIT_RUNS[0]}/{DIGIT_RUNS[1]}")
@example(span="1/0")
def test_weights_read_as_before(span):
    # a `.pts` entry loses its comment before its weight is read
    code = f"trans s --a-> {{ t:{span} }}"
    pos = code.index(":") + 1
    new_diags, old_diags = [], []
    new = read_weight(code, 4, new_diags, pos, pos + len(span))
    assert (new, new_diags) == (reference.read_weight(code, 4, old_diags, pos, pos + len(span)), old_diags)
    assert new is None or type(new) is Fraction


STATES = [opaque_state(name) for name in ("s", "t", "u", "f(s,t)")]
PROB = st.one_of(
    st.builds(Fraction, st.integers(-1, 5), st.sampled_from([1, 2, 3, 4, 6, 8, 12])),
    st.builds(Fraction, st.just(1), st.sampled_from([10**2999 + 1, 10**2999 + 3, 2**14285])),
)


@SETTINGS
@given(entries=st.lists(st.tuples(st.sampled_from(STATES), PROB), max_size=5))
def test_distributions_are_made_as_before(entries):
    def made(make):
        try:
            d = make(entries)
        except EvalError as exc:
            return str(exc)
        return d.items(), d.support, repr(d)

    assert made(Distribution) == made(reference.ReferenceDistribution)


def _pts_texts():
    texts = [p.read_text() for p in sorted(CORPUS.glob("*.pts"))]
    texts += [stuttered_text(k, random_pts(random.Random(f"front:{k}"), k)) for k in (1, 2, 3, 12)]
    golden = json.loads(GOLDEN.read_text())  # exported PTSs, whose state names are terms
    return texts + [case["stdout"] for key, case in sorted(golden.items()) if case["stdout"] and "chains/" not in key]


_D = 10**4298  # 4,299 digits
_UNIT = 10**4299  # 4,300 digits, and under 14,284 bits, so a probability's denominator
_NINES = 10**4300 - 1  # 4,300 digits too, but over 14,284 bits, which a probability may not have
_HEAD = "state s\nstate t\n"
EDGE_TEXTS = [
    _HEAD + "trans s --a-> { t: 1/2, s: 2/4 }\n",
    "# a file\n  state s # first\n\n\t# more\nstate t\t\ntrans s --a-> { t: 1 }   # last\n",
    _HEAD + "trans s --a-> { s: 0, t: 1 }\ntrans t --tau-> { s: 0/3, t: 7/7 }\n",
    _HEAD + f"trans s --a-> {{ s: 0{_D}/{2 * _D}, t: 1/2 }}\ntrans t --a-> {{ s: 1/{_D}, t: {_D - 1}/{_D} }}\n",
    _HEAD + f"trans s --a-> {{ s: 1/{_UNIT}, t: {_UNIT - 1}/{_UNIT} }}\n",
    "",
    _HEAD + "trans s --a-> { t: 1/2, t: 1/2 }\n",
    _HEAD + "trans s --a-> { t: 0, t: 1 }\n",
    _HEAD + f"trans s --a-> {{ s: 1/{_NINES}, t: {_NINES - 1}/{_NINES} }}\n",
    _HEAD + f"trans s --a-> {{ t: {'0' * 4300}1 }}\n",
    _HEAD + "trans s --a-> { t: 1/0 }\n",
    _HEAD + "trans s --a-> { t: 1/2 }\n",
    _HEAD + "trans s --a-> { u: 1 }\n",
    "state s\ntrans s --a-> { t: 1 }\nstate t\n",
    _HEAD + "state s\n",
    "state f(s)\nstate t\ntrans f(s) --a-> { t: 1 }\ntrans t --a-> { f(s): 1 }\n",
    _HEAD + "trans s --a-> {t: 1}\ntrans s -- a -> { t: 1 }\n",
    # a source state that holds `{`: by hand, and exported, where `oplus{` comes before the arrow
    "state a{b\nstate t\ntrans a{b --a-> { t: 1 }\ntrans a{b --b-> { t: 1/2, t: 1/2 }\n",
    json.loads(GOLDEN.read_text())["final_pb.ptss"]["stdout"],
]
PTS_TEXTS = _pts_texts() + EDGE_TEXTS
NOISE = st.lists(st.sampled_from(PIECES + ["state ", "trans ", "s", "t0", ": 1", "1/2", "\n"]), max_size=4).map("".join)


LABELS = ["tau", "a", " b ", "", "a b", "a-b", "1a", "<A>", "é", "a\x0bb", "-"]


@st.composite
def mutated_pts(draw):
    """A `.pts` text with one label replaced, some of them no action name,
    and up to three slices deleted, duplicated or replaced by noise."""
    text = draw(st.sampled_from(PTS_TEXTS))
    arrows = [m.span(1) for m in re.finditer(r"--(\w+)->", text)]
    if arrows and draw(st.booleans()):
        i, j = draw(st.sampled_from(arrows))
        text = text[:i] + draw(st.sampled_from(LABELS)) + text[j:]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        text = text[:i] + draw(st.sampled_from(["", text[i:j] * 2, draw(NOISE)])) + text[j:]
    return text


def _loaded(load, text):
    try:
        pts = load(text)
    except ParseFailure as exc:
        return exc.lines()
    transitions = [(tr.source, tr.label, tr.target.items(), repr(tr.target)) for tr in pts.transitions]
    return pts.states, transitions, export_pts(pts)


def _bad_labels(text):
    """The lines whose label was read before and is no action name, and their labels."""
    bad = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if line.startswith("trans "):
            problem, _, label = reference.trans_head(line)
            if problem is None and not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", label):
                bad[line_no] = label
    return bad


def _edge_examples(test):
    for text in EDGE_TEXTS:
        test = example(text=text)(test)
    return test


@settings(SETTINGS, max_examples=300)
@given(text=mutated_pts())
@_edge_examples
def test_pts_texts_load_as_before(text):
    new, old = _loaded(load_pts, text), _loaded(reference.load_pts, text)
    bad = _bad_labels(text)
    if bad:  # checked apart: the label is its line's one diagnostic
        kept = [d for d in old if int(d.split(":", 1)[0]) not in bad] if isinstance(old, list) else []
        kept += [f"{n}:1: error: label {label!r} is not an action name" for n, label in bad.items()]
        old = sorted(kept, key=lambda d: int(d.split(":", 1)[0]))
    assert new == old

