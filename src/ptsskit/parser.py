"""Parser and renderer for the `.ptss` rule DSL.

Canonical grammar, one declaration per line, `#` comments:

    ptss <name>
    actions a, b, tau
    op <name> : <sorts> -> <sort>        sorts written `s` / `d`, empty for constants
    op pre<A> : d -> s                   action-prefix family, one operator per action
    rule <name>: [<premises> |-] <src> --<label>-> <target>

Premises are comma-separated; a positive premise is `<src> --<label>-> <target>`,
a negative one `<src> -/<label>->`.  `<A>` is the single action metavariable:
a rule mentioning it is expanded into one rule per declared action, the copies
named `<name>@<action>`.  Term syntax: `a.t` (prefix), `delta(t)`,
`oplus{1/2: t1, 1/2: t2}` with exact `p/q` weights, `^f(...)` for the lifting
of `f` (liftings are auto-declared; declaring one is an error), and bare
identifiers for variables, whose sort is inferred from position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import PtssError, brief
from .terms import (
    Apply,
    Convex,
    Dirac,
    DistVar,
    FunctionSymbol,
    Signature,
    Sort,
    StateVar,
    Term,
    build_signature,
    render_term,
    validate_signature,
)

META = "<A>"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


class ParseFailure(PtssError):
    def __init__(self, diagnostics: list[Diagnostic], where: str = ""):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "parse failed", where)

    def lines(self) -> list[str]:
        # each diagnostic carries its line and column; `where` names the input
        prefix = f"{self.where}:" if self.where else ""
        return [prefix + str(d) for d in self.diagnostics] or super().lines()


@dataclass(frozen=True)
class Rule:
    """An SOS rule: positive/negative premises and a conclusion."""

    name: str
    pos_premises: tuple[tuple[Term, str, Term], ...]
    neg_premises: tuple[tuple[Term, str], ...]
    source: Term
    label: str
    target: Term


@dataclass(frozen=True)
class PTSS:
    name: str
    signature: Signature
    rules: tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Lexer

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
  | (?P<BAD>[\s\S])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _lex_line(
    text: str, line_no: int, diags: list[Diagnostic], pos: int = 0, end: Optional[int] = None
) -> list[Token]:
    """The tokens of text[pos:end], with their columns in `text`."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text, pos, len(text) if end is None else end):
        kind = m.lastgroup  # the alternative that matched: it closes after its label group
        if kind == "WS" or kind == "COMMENT":
            continue
        if kind == "BAD":  # `[\s\S]`, not `.`: a `--root` text may hold a newline
            diags.append(Diagnostic("error", f"unexpected character {m.group()!r}", line_no, m.start() + 1))
        elif kind == "ARROW" or kind == "NARROW":
            tokens.append(Token(kind, m.group("alabel" if kind == "ARROW" else "nlabel"), line_no, m.start() + 1))
        else:
            tokens.append(Token(kind, m.group(), line_no, m.start() + 1))
    return tokens


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


# ---------------------------------------------------------------------------
# Raw (sort-unresolved) terms

class _RName(NamedTuple):
    name: str
    line: int
    col: int


class _RApp(NamedTuple):
    name: str
    args: tuple["_Raw", ...]
    lifted: bool
    line: int
    col: int


class _RPrefix(NamedTuple):
    action: str  # concrete action or META
    arg: "_Raw"
    lifted: bool
    line: int
    col: int


class _RDirac(NamedTuple):
    arg: "_Raw"
    line: int
    col: int


class _RConvex(NamedTuple):
    weights: tuple[Fraction, ...]
    args: tuple["_Raw", ...]
    line: int
    col: int


_Raw = Union[_RName, _RApp, _RPrefix, _RDirac, _RConvex]


# Nesting bound: a deeper term is rejected before it could exhaust the Python
# stack, here or in the recursive term walks it meets later.  Operands count
# one level, and arguments of an operator or of oplus two, as they cost the
# walks two frames.
MAX_NESTING = 800


def _parse_raw_term(cur: _Cursor, depth: int = 0) -> Optional[_Raw]:
    tok = cur.peek()
    if tok is None:
        cur.error("expected a term")
        return None
    if depth > MAX_NESTING:
        cur.error(f"term nested more than {MAX_NESTING} levels deep")
        return None

    if tok.kind == "METAVAR":
        cur.next()
        if cur.expect("PUNCT", ".") is None:
            return None
        arg = _parse_raw_term(cur, depth + 1)
        return None if arg is None else _RPrefix(META, arg, False, tok.line, tok.col)

    if tok.kind == "PUNCT" and tok.text == "^":
        cur.next()
        head = cur.peek()
        if head is None:
            cur.error("expected an operator name after '^'")
            return None
        if head.kind == "METAVAR":
            cur.next()
            if cur.expect("PUNCT", ".") is None:
                return None
            arg = _parse_raw_term(cur, depth + 1)
            return None if arg is None else _RPrefix(META, arg, True, tok.line, tok.col)
        if head.kind in ("IDENT", "INT") or (head.kind == "PUNCT" and head.text == "+"):
            cur.next()
            nxt = cur.peek()
            if head.kind == "IDENT" and nxt is not None and nxt.kind == "PUNCT" and nxt.text == ".":
                cur.next()
                arg = _parse_raw_term(cur, depth + 1)
                return None if arg is None else _RPrefix(head.text, arg, True, tok.line, tok.col)
            args = _parse_raw_args(cur, depth + 1)
            if args is None:
                return None
            return _RApp(head.text, args, True, tok.line, tok.col)
        cur.error("expected an operator name after '^'")
        return None

    if tok.kind == "PUNCT" and tok.text == "(":
        cur.next()
        inner = _parse_raw_term(cur, depth + 1)
        if inner is None or cur.expect("PUNCT", ")") is None:
            return None
        return inner

    if tok.kind == "IDENT" and tok.text == "delta":
        cur.next()
        if cur.expect("PUNCT", "(") is None:
            return None
        arg = _parse_raw_term(cur, depth + 1)
        if arg is None or cur.expect("PUNCT", ")") is None:
            return None
        return _RDirac(arg, tok.line, tok.col)

    if tok.kind == "IDENT" and tok.text == "oplus":
        cur.next()
        if cur.expect("PUNCT", "{") is None:
            return None
        weights: list[Fraction] = []
        args: list[_Raw] = []
        while True:
            w = _parse_weight(cur)
            if w is None or cur.expect("PUNCT", ":") is None:
                return None
            arg = _parse_raw_term(cur, depth + 2)
            if arg is None:
                return None
            weights.append(w)
            args.append(arg)
            nxt = cur.peek()
            if nxt is not None and nxt.kind == "PUNCT" and nxt.text == ",":
                cur.next()
                continue
            break
        if cur.expect("PUNCT", "}") is None:
            return None
        return _RConvex(tuple(weights), tuple(args), tok.line, tok.col)

    if tok.kind in ("IDENT", "INT") or (tok.kind == "PUNCT" and tok.text == "+"):
        cur.next()
        nxt = cur.peek()
        if tok.kind == "IDENT" and nxt is not None and nxt.kind == "PUNCT" and nxt.text == ".":
            cur.next()
            arg = _parse_raw_term(cur, depth + 1)
            return None if arg is None else _RPrefix(tok.text, arg, False, tok.line, tok.col)
        if nxt is not None and nxt.kind == "PUNCT" and nxt.text == "(":
            args = _parse_raw_args(cur, depth + 1)
            if args is None:
                return None
            return _RApp(tok.text, args, False, tok.line, tok.col)
        return _RName(tok.text, tok.line, tok.col)

    cur.error(f"unexpected token {tok.text!r} in term")
    return None


def _parse_raw_args(cur: _Cursor, depth: int) -> Optional[tuple[_Raw, ...]]:
    nxt = cur.peek()
    if nxt is None or nxt.kind != "PUNCT" or nxt.text != "(":
        return ()
    cur.next()
    args: list[_Raw] = []
    nxt = cur.peek()
    if nxt is not None and nxt.kind == "PUNCT" and nxt.text == ")":
        cur.next()
        return tuple(args)
    while True:
        arg = _parse_raw_term(cur, depth + 1)
        if arg is None:
            return None
        args.append(arg)
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "PUNCT" and nxt.text == ",":
            cur.next()
            continue
        break
    if cur.expect("PUNCT", ")") is None:
        return None
    return tuple(args)


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


# a weight as _parse_weight reads one: INT or INT/INT, an INT being the lexer's \d+ of at most 4,300 digits
_WEIGHT_RE = re.compile(r"[ \t]*(\d{1,4300})[ \t]*(?:/[ \t]*(\d{1,4300})[ \t]*)?")


def read_weight(text: str, line_no: int, diags: list[Diagnostic], pos: int, end: int) -> Optional[Fraction]:
    """The weight that fills text[pos:end], read as an oplus weight is:
    `INT` or `INT/INT`.  Anything else adds a diagnostic and gives None.
    The span holds no `#`: a `.pts` line loses its comment first."""
    m = _WEIGHT_RE.fullmatch(text, pos, end)
    if m is not None:
        num, den = m.groups()
        if den is None:
            return Fraction(int(num))
        if int(den):
            return Fraction(int(num), int(den))
    # not a weight: the lexer and the oplus parser word the diagnostic
    seen = len(diags)
    cur = _Cursor(_lex_line(text, line_no, diags, pos, end), line_no, diags)
    if cur.at_end():  # nothing to point at but the end of the span
        if len(diags) == seen:
            diags.append(Diagnostic("error", "expected a probability", line_no, end + 1))
    elif _parse_weight(cur) is not None and not cur.at_end():
        cur.error("a probability is an integer or p/q")
    return None


def _raw_expand(raw: _Raw, action: str) -> _Raw:
    if isinstance(raw, _RName):
        return raw
    if isinstance(raw, _RApp):
        return _RApp(raw.name, tuple(_raw_expand(a, action) for a in raw.args), raw.lifted, raw.line, raw.col)
    if isinstance(raw, _RPrefix):
        act = action if raw.action == META else raw.action
        return _RPrefix(act, _raw_expand(raw.arg, action), raw.lifted, raw.line, raw.col)
    if isinstance(raw, _RDirac):
        return _RDirac(_raw_expand(raw.arg, action), raw.line, raw.col)
    if isinstance(raw, _RConvex):
        return _RConvex(raw.weights, tuple(_raw_expand(a, action) for a in raw.args), raw.line, raw.col)
    raise TypeError(raw)


# ---------------------------------------------------------------------------
# Sort resolution

class _Resolver:
    def __init__(self, sig: Signature, diags: list[Diagnostic]):
        self.sig = sig
        self.diags = diags
        self.var_sorts: dict[str, Sort] = {}

    def error(self, message: str, raw: _Raw) -> None:
        self.diags.append(Diagnostic("error", message, raw.line, raw.col))

    def _check_result(self, raw: _Raw, got: Sort, expected: Optional[Sort]) -> bool:
        if expected is not None and got is not expected:
            self.error(
                f"term has sort {got.value}, expected {expected.value}",
                raw,
            )
            return False
        return True

    def resolve(self, raw: _Raw, expected: Optional[Sort]) -> Optional[Term]:
        if isinstance(raw, _RName):
            op = self.sig.op(raw.name)
            if op is not None:
                if op.rank != 0:
                    self.error(f"operator {raw.name} expects {op.rank} arguments", raw)
                    return None
                if not self._check_result(raw, op.result_sort, expected):
                    return None
                return Apply(op, ())
            if raw.name in self.sig.actions:
                self.error(f"action {raw.name} cannot be used as a term", raw)
                return None
            sort = expected if expected is not None else Sort.STATE
            seen = self.var_sorts.get(raw.name)
            if seen is not None and seen is not sort:
                self.error(
                    f"variable {raw.name} used at sorts {seen.value} and {sort.value}", raw
                )
                return None
            self.var_sorts[raw.name] = sort
            return StateVar(raw.name) if sort is Sort.STATE else DistVar(raw.name)

        if isinstance(raw, _RApp):
            f = self.sig.state_op(raw.name)
            if raw.lifted:
                if f is None:
                    self.error(f"unknown operator {raw.name} (cannot lift)", raw)
                    return None
                sym = self.sig.lifted(f)
            else:
                sym = f if f is not None else self.sig.dist_op(raw.name)
            if sym is None:
                self.error(f"unknown operator {raw.name}", raw)
                return None
            if sym.rank != len(raw.args):
                self.error(f"operator {sym.name} expects {sym.rank} arguments, got {len(raw.args)}", raw)
                return None
            if not self._check_result(raw, sym.result_sort, expected):
                return None
            args = []
            for a, want in zip(raw.args, sym.arg_sorts):
                t = self.resolve(a, want)
                if t is None:
                    return None
                args.append(t)
            return Apply(sym, tuple(args))

        if isinstance(raw, _RPrefix):
            if raw.action == META:
                self.error("action metavariable <A> is only allowed inside rules", raw)
                return None
            if raw.action not in self.sig.actions:
                self.error(f"unknown action {raw.action}", raw)
                return None
            f = self.sig.prefix(raw.action)
            if f is None:
                self.error(f"no prefix operator declared (missing 'op pre<A> : d -> s')", raw)
                return None
            sym = self.sig.lifted(f) if raw.lifted else f
            if not self._check_result(raw, sym.result_sort, expected):
                return None
            arg = self.resolve(raw.arg, Sort.DIST)
            return None if arg is None else Apply(sym, (arg,))

        if isinstance(raw, _RDirac):
            if not self._check_result(raw, Sort.DIST, expected):
                return None
            inner = self.resolve(raw.arg, Sort.STATE)
            return None if inner is None else Dirac(inner)

        if isinstance(raw, _RConvex):
            if not self._check_result(raw, Sort.DIST, expected):
                return None
            total = sum(raw.weights)
            if total != 1:
                self.error(f"weights sum to {brief(total)}, expected 1", raw)
                return None
            if any(w <= 0 for w in raw.weights):
                self.error("weights must be positive", raw)
                return None
            args = []
            for a in raw.args:
                t = self.resolve(a, Sort.DIST)
                if t is None:
                    return None
                args.append(t)
            return Convex(raw.weights, tuple(args))

        raise TypeError(raw)


# ---------------------------------------------------------------------------
# Spec parsing

@dataclass
class _RawRule:
    name: str
    pos: list[tuple[_Raw, str, _Raw]]
    neg: list[tuple[_Raw, str]]
    source: _Raw
    label: str
    target: _Raw
    line: int
    has_meta: bool = False  # a `<A>` prefix or label


def _parse_rule_line(cur: _Cursor) -> Optional[_RawRule]:
    name_tok = cur.peek()
    if name_tok is None or name_tok.kind not in ("IDENT", "INT"):
        cur.error("expected a rule name")
        return None
    cur.next()
    name = name_tok.text
    nxt = cur.peek()
    if nxt is not None and nxt.kind == "PUNCT" and nxt.text == "@":
        cur.next()
        part = cur.expect("IDENT")
        if part is None:
            return None
        name = f"{name}@{part.text}"
    if cur.expect("PUNCT", ":") is None:
        return None

    literals: list[tuple[str, _Raw, str, Optional[_Raw]]] = []
    turnstile_at: Optional[int] = None
    while True:
        src = _parse_raw_term(cur)
        if src is None:
            return None
        tok = cur.next()
        if tok is None:
            cur.error("expected '--<label>->' or '-/<label>->'")
            return None
        if tok.kind == "ARROW":
            tgt = _parse_raw_term(cur)
            if tgt is None:
                return None
            literals.append(("pos", src, tok.text, tgt))
        elif tok.kind == "NARROW":
            literals.append(("neg", src, tok.text, None))
        else:
            cur.error("expected '--<label>->' or '-/<label>->'", tok)
            return None
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "PUNCT" and nxt.text == ",":
            cur.next()
            continue
        if nxt is not None and nxt.kind == "TURNSTILE":
            if turnstile_at is not None:
                cur.error("duplicate '|-'")
                return None
            cur.next()
            turnstile_at = len(literals)
            continue
        break
    if not cur.at_end():
        cur.error("unexpected trailing tokens in rule")
        return None

    premises = literals[: turnstile_at or 0]
    rest = literals[turnstile_at or 0 :]
    if len(rest) != 1:
        cur.error("a rule needs exactly one conclusion after '|-'")
        return None
    conclusion = rest[0]
    if conclusion[0] != "pos":
        cur.error("rule conclusion cannot be a negative literal")
        return None
    pos = [(s, l, t) for kind, s, l, t in premises if kind == "pos" and t is not None]
    neg = [(s, l) for kind, s, l, _ in premises if kind == "neg"]
    return _RawRule(
        name=name,
        pos=pos,
        neg=neg,
        source=conclusion[1],
        label=conclusion[2],
        target=conclusion[3],  # type: ignore[arg-type]
        line=cur.line,
        has_meta=any(tok.text == META for tok in cur.tokens),
    )


def _resolve_rule(raw: _RawRule, name: str, sig: Signature, diags: list[Diagnostic]) -> Optional[Rule]:
    res = _Resolver(sig, diags)
    before = len(diags)

    def check_label(label: str, line: int) -> bool:
        if label not in sig.actions:
            diags.append(Diagnostic("error", f"unknown action {label}", line, 1))
            return False
        return True

    pos: list[tuple[Term, str, Term]] = []
    for s_raw, label, t_raw in raw.pos:
        ok = check_label(label, raw.line)
        s = res.resolve(s_raw, Sort.STATE)
        t = res.resolve(t_raw, Sort.DIST)
        if ok and s is not None and t is not None:
            pos.append((s, label, t))
    neg: list[tuple[Term, str]] = []
    for s_raw, label in raw.neg:
        ok = check_label(label, raw.line)
        s = res.resolve(s_raw, Sort.STATE)
        if ok and s is not None:
            neg.append((s, label))
    ok = check_label(raw.label, raw.line)
    source = res.resolve(raw.source, Sort.STATE)
    target = res.resolve(raw.target, Sort.DIST)
    if len(diags) != before or not ok or source is None or target is None:
        return None
    return Rule(name, tuple(pos), tuple(neg), source, raw.label, target)


def try_parse_spec(text: str) -> tuple[Optional[PTSS], list[Diagnostic]]:
    """Parse a `.ptss` source; returns (spec-or-None, diagnostics)."""
    diags: list[Diagnostic] = []
    name: Optional[str] = None
    actions: list[str] = []
    user_ops: list[FunctionSymbol] = []
    prefix_family = False
    raw_rules: list[_RawRule] = []
    sig: Optional[Signature] = None

    def ensure_signature() -> Signature:
        nonlocal sig
        if sig is None:
            sig = build_signature(actions, user_ops, prefix_family)
            for msg in validate_signature(sig):
                diags.append(Diagnostic("error", msg, 1, 1))
        return sig

    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(line, line_no, diags)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no, diags)
        head = cur.next()
        assert head is not None
        if head.kind == "IDENT" and head.text == "ptss":
            tok = cur.peek()
            if tok is None or tok.kind != "IDENT":
                cur.error("expected a specification name")
                continue
            cur.next()
            if name is not None:
                cur.error("duplicate 'ptss' declaration", head)
            name = tok.text
        elif head.kind == "IDENT" and head.text == "actions":
            if sig is not None:
                cur.error("declarations must precede rules", head)
                continue
            while True:
                tok = cur.peek()
                if tok is None or tok.kind != "IDENT":
                    cur.error("expected an action name")
                    break
                cur.next()
                actions.append(tok.text)
                nxt = cur.peek()
                if nxt is not None and nxt.kind == "PUNCT" and nxt.text == ",":
                    cur.next()
                    continue
                if not cur.at_end():
                    cur.error("expected ',' between actions")
                break
        elif head.kind == "IDENT" and head.text == "op":
            if sig is not None:
                cur.error("declarations must precede rules", head)
                continue
            tok = cur.next()
            if tok is None:
                cur.error("expected an operator name")
                continue
            if tok.kind == "PUNCT" and tok.text == "^":
                cur.error("liftings are auto-declared; do not declare '^' operators", tok)
                continue
            opname = tok.text
            is_family = False
            nxt = cur.peek()
            if tok.kind == "IDENT" and tok.text == "pre" and nxt is not None and nxt.kind == "METAVAR":
                cur.next()
                is_family = True
            if cur.expect("PUNCT", ":") is None:
                continue
            arg_sorts: list[Sort] = []
            while True:
                tok2 = cur.peek()
                if tok2 is not None and tok2.kind == "IDENT" and tok2.text in ("s", "d"):
                    cur.next()
                    arg_sorts.append(Sort.STATE if tok2.text == "s" else Sort.DIST)
                    continue
                break
            if cur.expect("RARROW") is None:
                continue
            tok2 = cur.peek()
            if tok2 is None or tok2.kind != "IDENT" or tok2.text not in ("s", "d"):
                cur.error("expected a result sort ('s' or 'd')")
                continue
            cur.next()
            result = Sort.STATE if tok2.text == "s" else Sort.DIST
            if not cur.at_end():
                cur.error("unexpected trailing tokens in op declaration")
                continue
            if is_family:
                if arg_sorts != [Sort.DIST] or result is not Sort.STATE:
                    cur.error("the prefix family must be declared 'op pre<A> : d -> s'", head)
                    continue
                prefix_family = True
            else:
                if result is not Sort.STATE:
                    cur.error("only state operators may be declared; liftings are automatic", head)
                    continue
                if opname in ("delta", "oplus"):
                    cur.error(f"{opname} is a reserved name", head)
                    continue
                if opname in actions:
                    cur.error(f"operator name {opname} collides with an action", head)
                    continue
                if any(f.name == opname for f in user_ops):
                    cur.error(f"duplicate operator {opname}", head)
                    continue
                user_ops.append(FunctionSymbol(opname, tuple(arg_sorts), result))
        elif head.kind == "IDENT" and head.text == "rule":
            ensure_signature()
            raw = _parse_rule_line(cur)
            if raw is not None:
                raw_rules.append(raw)
        else:
            cur.error(f"unknown declaration {head.text!r}", head)

    signature = ensure_signature()
    if name is None:
        diags.append(Diagnostic("error", "missing 'ptss <name>' declaration", 1, 1))

    rules: list[Rule] = []
    seen_rule_names: set[str] = set()
    for raw in raw_rules:
        if raw.has_meta:
            instances = [
                (
                    f"{raw.name}@{a}",
                    _RawRule(
                        raw.name,
                        [(_raw_expand(s, a), a if l == META else l, _raw_expand(t, a)) for s, l, t in raw.pos],
                        [(_raw_expand(s, a), a if l == META else l) for s, l in raw.neg],
                        _raw_expand(raw.source, a),
                        a if raw.label == META else raw.label,
                        _raw_expand(raw.target, a),
                        raw.line,
                    ),
                )
                for a in signature.actions
            ]
        else:
            instances = [(raw.name, raw)]
        for inst_name, inst in instances:
            if inst_name in seen_rule_names:
                diags.append(Diagnostic("error", f"duplicate rule name {inst_name}", inst.line, 1))
                continue
            rule = _resolve_rule(inst, inst_name, signature, diags)
            if rule is not None:
                rules.append(rule)
                seen_rule_names.add(inst_name)

    if any(d.severity == "error" for d in diags):
        return None, diags
    assert name is not None
    return PTSS(name, signature, tuple(rules)), diags


def parse_spec(text: str) -> PTSS:
    spec, diags = try_parse_spec(text)
    if spec is None:
        raise ParseFailure([d for d in diags if d.severity == "error"])
    return spec


def parse_term(text: str, sig: Signature, expected: Optional[Sort] = None) -> Term:
    """Parse a single (open or closed) term against a signature."""
    diags: list[Diagnostic] = []
    cur = _Cursor(_lex_line(text, 1, diags), 1, diags)
    raw = _parse_raw_term(cur)
    if raw is not None and not cur.at_end():
        cur.error("unexpected trailing tokens after term")
    # every diagnostic is an error, and a term that does not resolve has one
    term = None if diags or raw is None else _Resolver(sig, diags).resolve(raw, expected)
    if term is None:
        raise ParseFailure(diags)
    return term


# ---------------------------------------------------------------------------
# Rendering

def render_rule(rule: Rule) -> str:
    premises = [f"{render_term(s)} --{l}-> {render_term(t)}" for s, l, t in rule.pos_premises]
    premises += [f"{render_term(s)} -/{l}->" for s, l in rule.neg_premises]
    conclusion = f"{render_term(rule.source)} --{rule.label}-> {render_term(rule.target)}"
    if premises:
        return f"rule {rule.name}: {', '.join(premises)} |- {conclusion}"
    return f"rule {rule.name}: {conclusion}"


def render_spec(spec: PTSS) -> str:
    lines = [f"ptss {spec.name}", f"actions {', '.join(spec.signature.actions)}"]
    for f in spec.signature.state_ops:
        if f.prefix_action is not None:
            continue
        sorts = " ".join(s.value for s in f.arg_sorts)
        sorts = f"{sorts} " if sorts else ""
        lines.append(f"op {f.name} : {sorts}-> {f.result_sort.value}")
    if spec.signature.has_prefix_family:
        lines.append("op pre<A> : d -> s")
    lines.extend(render_rule(r) for r in spec.rules)
    return "\n".join(lines) + "\n"


def render(obj: Union[PTSS, Rule, Term]) -> str:
    if isinstance(obj, PTSS):
        return render_spec(obj)
    if isinstance(obj, Rule):
        return render_rule(obj)
    return render_term(obj)
