"""The front end as it read input before the one-pass reader, kept as the test
oracle of `ptsskit.parser._lex_line`, `ptsskit.parser.read_weight`,
`ptsskit.engine.load_pts` and `ptsskit.distributions.Distribution`.

It matches the token pattern once a token and reports a character no
alternative matches; it lexes and parses every `.pts` weight; it splits each
distribution body at its `,`s and then each entry at its `:`s; and it makes a
`Fraction` of every probability and adds each one twice, into its entry and
into the total.  A `.pts` label is whatever stands between the arrow's `--`
and `->`.  A `trans` line's distribution starts at the first `{` that
follows `->` and blanks, else at the line's first `{` (`dist_brace`); it
started at the first `{` until exported texts whose source state holds one,
such as `f(a.oplus{...})`, failed to load back.  The PTS it reads is ordered
as `PTS` ordered it, by sorting the set of its transitions by their rendered
texts.  Its `Token`, `_Cursor` and `_parse_weight` are the parser's own from
before the one-pass parser, which `tests/reference_parser.py` reads with
too.
"""

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from ptsskit.distributions import Distribution, EvalError
from ptsskit.engine import PtsTransition, opaque_state
from ptsskit.errors import brief
from ptsskit.parser import Diagnostic, ParseFailure
from ptsskit.terms import Term
from tests.reference_render import render_term


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


class _Cursor:
    def __init__(self, tokens: list[Token], line: int, diags: list[Diagnostic]):
        self.tokens = tokens
        self.i = 0
        self.line = line
        self.diags = diags

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Optional[Token]:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def error(self, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.peek()
        col = tok.col if tok else (self.tokens[-1].col + len(self.tokens[-1].text) if self.tokens else 1)
        self.diags.append(Diagnostic("error", message, self.line, col))

    def expect(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind.lower()
            self.error(f"expected {want!r}")
            return None
        return self.next()


def _too_long(cur: _Cursor, tok: Token) -> bool:
    """Flag an integer longer than int() converts by default."""
    if len(tok.text) > 4300:
        cur.error("integer has more than 4300 digits", tok)
    return len(tok.text) > 4300


def _parse_weight(cur: _Cursor) -> Optional[Fraction]:
    tok = cur.expect("INT")
    if tok is None or _too_long(cur, tok):
        return None
    num = int(tok.text)
    nxt = cur.peek()
    if nxt is not None and nxt.kind == "PUNCT" and nxt.text == "/":
        cur.next()
        den = cur.expect("INT")
        if den is None or _too_long(cur, den):
            return None
        if int(den.text) == 0:
            cur.error("weight denominator is zero", den)
            return None
        return Fraction(num, int(den.text))
    return Fraction(num)


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t]+)
  | (?P<COMMENT>\#.*)
  | (?P<ARROW>--(?P<alabel>[A-Za-z_][A-Za-z0-9_]*|<A>)->)
  | (?P<NARROW>-/(?P<nlabel>[A-Za-z_][A-Za-z0-9_]*|<A>)->)
  | (?P<RARROW>->)
  | (?P<TURNSTILE>\|-)
  | (?P<METAVAR><A>)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<INT>\d+)
  | (?P<PUNCT>[(){},:.^/+@])
    """,
    re.VERBOSE,
)


def lex_line(text: str, line_no: int, diags: list, pos: int = 0, end: Optional[int] = None) -> list[Token]:
    """The tokens of text[pos:end], with their columns in `text`."""
    tokens: list[Token] = []
    end = len(text) if end is None else end
    while pos < end:
        m = _TOKEN_RE.match(text, pos, end)
        if m is None:
            diags.append(Diagnostic("error", f"unexpected character {text[pos]!r}", line_no, pos + 1))
            pos += 1
            continue
        kind = m.lastgroup
        if kind in ("ARROW", "NARROW"):
            label = m.group("alabel") if kind == "ARROW" else m.group("nlabel")
            tokens.append(Token(kind, label, line_no, m.start() + 1))
        elif kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, m.group(), line_no, m.start() + 1))
        pos = m.end()
    return tokens


def read_weight(text: str, line_no: int, diags: list, pos: int, end: int) -> Optional[Fraction]:
    seen = len(diags)
    tokens = lex_line(text, line_no, diags, pos, end)
    if not tokens:
        if len(diags) == seen:
            diags.append(Diagnostic("error", "expected a probability", line_no, end + 1))
        return None
    cur = _Cursor(tokens, line_no, diags)
    weight = _parse_weight(cur)
    if weight is not None and not cur.at_end():
        cur.error("a probability is an integer or p/q")
    return weight if len(diags) == seen else None


class ReferenceDistribution(Distribution):
    __slots__ = ()

    def __init__(self, items):
        table: dict = {}
        for term, p in items:
            p = Fraction(p)
            if p < 0:
                raise EvalError(f"negative probability for {render_term(term)}")
            if p == 0:
                continue
            q = table[term] = table.get(term, Fraction(0)) + p
            if q.denominator.bit_length() > 14284:
                raise EvalError("a probability has 4300 digits or more")
        total = sum(table.values(), Fraction(0))
        if total > 1:
            raise EvalError("total mass exceeds 1")
        self._table = table
        self._items = tuple(sorted(table.items(), key=lambda kv: render_term(kv[0])))
        self._total = total
        self._support = tuple(t for t, _ in self._items)  # the slots the library adds
        self._text = None


class ReferencePts(NamedTuple):
    states: tuple
    actions: tuple
    transitions: tuple


def _split_balanced(text: str, sep: str, pos: int, end: int) -> list[tuple[int, int]]:
    """The spans of text[pos:end] between the `sep`s outside brackets."""
    spans: list[tuple[int, int]] = []
    depth = 0
    for i in range(pos, end):
        if text[i] in "({":
            depth += 1
        elif text[i] in ")}":
            depth -= 1
        elif text[i] == sep and depth == 0:
            spans.append((pos, i))
            pos = i + 1
    spans.append((pos, end))
    return spans


def _read_distribution(code: str, line_no: int, states: dict, diags: list) -> Optional[Distribution]:
    def err(message: str) -> None:
        diags.append(Diagnostic("error", message, line_no, 1))

    items: list[tuple[Term, Fraction]] = []
    for start, stop in _split_balanced(code, ",", dist_brace(code) + 1, code.rindex("}")):
        if not code[start:stop].strip():
            continue
        pieces = _split_balanced(code, ":", start, stop)
        if len(pieces) != 2:
            return err(f"malformed distribution entry {code[start:stop].strip()!r}")
        name = code[slice(*pieces[0])].strip()
        if name not in states:
            return err(f"undeclared state {name}")
        prob = read_weight(code, line_no, diags, *pieces[1])
        if prob is None:
            return None
        items.append((states[name], prob))
    try:
        dist = ReferenceDistribution(items)
    except EvalError as exc:
        return err(str(exc))
    return dist if dist.is_full else err(f"distribution mass is {brief(dist.total_mass)}, expected 1")


def dist_brace(line: str) -> int:
    """Where a `trans` line's distribution starts: at the first `{` that
    follows `->` and blanks, else at the line's first `{`, else -1."""
    arrow = re.search(r"->\s*\{", line)
    return arrow.end() - 1 if arrow else line.find("{")


def trans_head(line: str) -> tuple[Optional[str], str, str]:
    """A stripped `trans` line's problem with its head, if any, its source
    text and its label."""
    rest = line[len("trans "):]
    at = dist_brace(rest)
    head, brace, dist_text = (rest[:at], "{", rest[at + 1:]) if at >= 0 else (rest, "", "")
    head, dist_text = head.rstrip(), (brace + dist_text).strip()
    arrow = head.rfind("--", 0, len(head) - 2)
    src_text, label = head[:arrow].strip(), head[arrow + 2:-2].strip()
    if not (brace and dist_text.endswith("}")):
        return "expected a '{ term: p/q, ... }' distribution", src_text, label
    if arrow < 0:
        return "expected '--<label>->'", src_text, label
    if not head.endswith("->"):
        return "expected '->' after the label", src_text, label
    return None, src_text, label


def load_pts(text: str) -> ReferencePts:
    diags: list = []
    states: dict[str, Term] = {}
    order: list[Term] = []
    transitions: list[PtsTransition] = []
    labels: set[str] = set()

    def err(message: str, line_no: int) -> None:
        diags.append(Diagnostic("error", message, line_no, 1))

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("state "):
            name = line[len("state "):].strip()
            if not name:
                err("empty state name", line_no)
            elif name in states:
                err(f"duplicate state {name}", line_no)
            else:
                states[name] = opaque_state(name)
                order.append(states[name])
        elif line.startswith("trans "):
            problem, src_text, label = trans_head(line)
            if problem is None and src_text not in states:
                problem = f"undeclared state {src_text}"
            if problem is not None:
                err(problem, line_no)
                continue
            dist = _read_distribution(raw_line.split("#", 1)[0], line_no, states, diags)
            if dist is None:
                continue
            labels.add(label)
            transitions.append(PtsTransition(states[src_text], label, dist))
        else:
            err(f"unknown line {line.split()[0]!r}", line_no)
    if diags:
        raise ParseFailure(diags)
    ordered = sorted(set(transitions), key=lambda t: (render_term(t.source), t.label, repr(t.target)))
    return ReferencePts(tuple(sorted(order, key=render_term)), tuple(sorted(labels | {"tau"})), tuple(ordered))
