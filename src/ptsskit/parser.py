"""Parser for the `.ptss` rule DSL.

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

The parser makes one pass.  A line's tokens are the strings of one
`findall`; a column is worked out only for a diagnostic.  A recursive
descent over them (`_Cursor`) looks each name up once and builds
sort-checked, interned terms as it reads; a `<A>` rule is read from its
tokens once per action, or once and relabelled if every `<A>` in it is an
arrow's label.  The sort errors of a rule are reported after every line's
syntax errors, as a resolver walking the rule would meet them: its
positive premises, its negative ones, its conclusion, each term in order.
A rule line reports each of them once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, NoReturn, Optional

from .errors import PtssError, brief
from .terms import (
    _DIST,
    _STATE,
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
    validate_signature,
)

META = "<A>"


class Diagnostic(NamedTuple):
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


class Rule(NamedTuple):
    """An SOS rule: positive/negative premises and a conclusion."""

    name: str
    pos_premises: tuple[tuple[Term, str, Term], ...]
    neg_premises: tuple[tuple[Term, str], ...]
    source: Term
    label: str
    target: Term


class PTSS(NamedTuple):
    name: str
    signature: Signature
    rules: tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Lexer

# A match is a token or a comment.  A search skips what no match starts
# at: blanks, and stray characters, which the lexer reports.
_TOKEN_RE = re.compile(
    r"#.*|--(?:[A-Za-z_][A-Za-z0-9_]*|<A>)->|-/(?:[A-Za-z_][A-Za-z0-9_]*|<A>)->|->|\|-|<A>"
    r"|[A-Za-z_][A-Za-z0-9_]*|\d+|[(){},:.^/+@]"
)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
# the first characters of an identifier, an integer or `+`, the tokens that
# name an operator or a variable; a token beginning past ASCII is an integer
_NAME_START = _IDENT_START | _DIGITS | {"+"}
_ARROW_MSG = "expected '--<label>->' or '-/<label>->'"
_SORTS = {"s": _STATE, "d": _DIST}


def _text(tok: str) -> str:
    """A token as diagnostics quote it: an arrow by its label."""
    return tok[2:-2] if tok[:2] in ("--", "-/") else tok


def _lex_line(text: str, line_no: int, diags: list[Diagnostic], pos: int = 0, end: Optional[int] = None) -> list[str]:
    """The token strings of text[pos:end]; each stray character adds a diagnostic."""
    end = len(text) if end is None else end
    tokens = _TOKEN_RE.findall(text, pos, end)
    stop = text.find("#", pos, end)  # a comment runs to the end, unless a newline ends it
    if stop < 0 or text.find("\n", stop, end) < 0:
        stop = end if stop < 0 else stop
        blanks = text.count(" ", pos, stop) + text.count("\t", pos, stop)
        if stop < end:
            tokens.pop()
        if sum(map(len, tokens)) + blanks == stop - pos:
            return tokens  # the tokens and the blanks fill the text up to the comment
    tokens = []
    for m in (*_TOKEN_RE.finditer(text, pos, end), None):
        stop = end if m is None else m.start()
        diags.extend(Diagnostic("error", f"unexpected character {c!r}", line_no, j + 1)
                     for j, c in enumerate(text[pos:stop], pos) if c not in " \t")
        if m is not None:
            if m[0][0] != "#":
                tokens.append(m[0])
            pos = m.end()
    return tokens


def _mismatch(got: Sort, expected: Optional[Sort]) -> Optional[str]:
    if expected is not None and got is not expected:
        return f"term has sort {got.value}, expected {expected.value}"
    return None


class _Stop(PtssError):
    """A syntax error, already reported: the rest of the line is not read."""


# Nesting bound: a deeper term is rejected before it could exhaust the Python
# stack in the two walks that still recurse: this parser, and
# `terms._match_into` over the patterns of rules.  Operands count one level,
# and arguments of an operator or of oplus two, as they cost the walks two
# frames.
MAX_NESTING = 800

_Event = tuple[str, Optional[Sort], int]


class _Cursor:
    """The tokens of one line, or of a term or weight text, and the reading
    of them into terms over `sig`.

    Terms are built as they are read.  A sort error makes the term None and
    is put in `events`, which also holds each variable's sort as its position
    gives it; `settle` reports them as a resolver walking the terms in order
    would.  A syntax error raises `_Stop`.  Token k's column is worked out
    only for a diagnostic.
    """

    __slots__ = ("text", "pos", "end", "toks", "i", "line", "diags", "sig", "ops", "prefixes", "action", "events",
                 "vars")

    def __init__(self, text: str, line: int, diags: list[Diagnostic], pos: int = 0, end: Optional[int] = None):
        self.text, self.pos, self.end = text, pos, len(text) if end is None else end
        self.toks = _lex_line(text, line, diags, pos, self.end)
        self.toks.append("")  # the end, which no test of a token matches
        self.i = 0
        self.line = line
        self.diags = diags
        self.action: Optional[str] = None  # the action `<A>` stands for
        self.events: list[_Event] = []
        self.vars: dict[str, Term] = {}  # the variables read, which a rule's instances share

    def over(self, sig: Signature) -> "_Cursor":
        """Read terms over `sig`."""
        self.sig, self.ops, self.prefixes = sig, sig._names, sig._prefixes
        return self

    def col(self, k: int) -> int:
        """The column of token k, or just past the last token for the end."""
        n, end = 0, 1
        for m in _TOKEN_RE.finditer(self.text, self.pos, self.end):
            if m[0][0] != "#":
                if n == k:
                    return m.start() + 1
                n, end = n + 1, m.start() + 1 + len(_text(m[0]))
        return end

    def error(self, message: str, k: Optional[int] = None) -> None:
        self.diags.append(Diagnostic("error", message, self.line, self.col(self.i if k is None else k)))

    def fail(self, message: str, k: Optional[int] = None) -> NoReturn:
        self.error(message, k)
        raise _Stop

    def take(self, text: str) -> None:
        if self.toks[self.i] != text:
            self.fail(f"expected {text!r}")
        self.i += 1

    def integer(self) -> int:
        tok = self.toks[self.i]
        if not (tok[:1] in _DIGITS or tok[:1] >= "\x80"):
            self.fail("expected 'int'")
        if len(tok) > 4300:  # more than int() converts by default
            self.fail("integer has more than 4300 digits")
        self.i += 1
        return int(tok)

    def weight(self) -> Fraction:
        num = self.integer()
        if self.toks[self.i] != "/":
            return Fraction(num)
        self.i += 1
        den = self.integer()
        if den == 0:
            self.fail("weight denominator is zero", self.i - 1)
        return Fraction(num, den)

    def term(self, expected: Optional[Sort], depth: int) -> Optional[Term]:
        """Read a term of the expected sort (None: either) and build it; None
        for a term with a sort error, which goes to events.  `depth` counts
        the nesting levels of MAX_NESTING."""
        toks = self.toks
        k = self.i
        tok = toks[k]
        if not tok:
            self.fail("expected a term")
        if depth > MAX_NESTING:
            self.fail(f"term nested more than {MAX_NESTING} levels deep")
        self.i = k + 1
        c = tok[0]
        if tok == "delta":
            self.take("(")
            if expected is _STATE:
                self.events.append(("term has sort d, expected s", None, k))
            inner = self.term(_STATE, depth + 1)
            self.take(")")
            return None if inner is None or expected is _STATE else Dirac(inner)
        if tok == "oplus":
            return self.convex(k, expected, depth)
        # the forms left but `(t)` are prefixes, whose operand is read below, and operators
        if c in _NAME_START or c >= "\x80":
            nxt = toks[k + 1]
            if nxt == "(":
                return self.apply(tok, False, k, expected, depth)
            if nxt != "." or c not in _IDENT_START:
                return self.name(tok, k, expected)
            self.i = k + 2
            f = self.prefixes.get(tok)
            if f is None or expected is _DIST:
                f = self.prefix(tok, False, k, expected)
        elif tok == "<A>":
            self.take(".")
            f = self.prefix(self.action, False, k, expected)
        elif tok == "^":
            head = toks[k + 1]
            c = head[:1]
            if head == "<A>":
                self.i = k + 2
                self.take(".")
                f = self.prefix(self.action, True, k, expected)
            elif not (c in _NAME_START or c >= "\x80"):
                self.fail("expected an operator name after '^'")
            elif toks[k + 2] != "." or c not in _IDENT_START:
                self.i = k + 2
                return self.apply(head, True, k, expected, depth)
            else:
                self.i = k + 3
                f = self.prefix(head, True, k, expected)
        elif tok == "(":
            inner = self.term(expected, depth + 1)
            self.take(")")
            return inner
        else:
            self.fail(f"unexpected token {_text(tok)!r} in term", k)
        arg = self.term(_DIST, depth + 1)
        return None if f is None or arg is None else Apply(f, (arg,))

    def prefix(self, act: Optional[str], lifted: bool, k: int, expected: Optional[Sort]) -> Optional[FunctionSymbol]:
        """The operator of a prefix `act.`, or None with its error put in events."""
        f = self.prefixes.get(act)
        if act is None:
            err = "action metavariable <A> is only allowed inside rules"
        elif act not in self.prefixes:
            err = f"unknown action {act}"
        elif f is None:
            err = "no prefix operator declared (missing 'op pre<A> : d -> s')"
        else:
            f = self.sig.lifted(f) if lifted else f
            err = _mismatch(f.result_sort, expected)
        if err is None:
            return f
        self.events.append((err, None, k))
        return None

    def apply(self, name: str, lifted: bool, k: int, expected: Optional[Sort], depth: int) -> Optional[Term]:
        if lifted:
            f = self.sig.state_op(name)
            sym = None if f is None else self.sig.lifted(f)
            err = f"unknown operator {name} (cannot lift)" if f is None else None
        else:
            sym = self.ops.get(name)
            err = f"unknown operator {name}" if sym is None else None
        toks, events = self.toks, self.events
        start = len(events)  # the arguments' events go if the operator has an error
        args: list = []
        failed = False
        if toks[self.i] == "(":
            self.i += 1
            if toks[self.i] == ")":
                self.i += 1
            else:
                sorts = iter(() if sym is None else sym.arg_sorts)
                while True:
                    arg = self.term(next(sorts, None), depth + 2)
                    failed = failed or arg is None
                    args.append(arg)
                    if toks[self.i] != ",":
                        break
                    self.i += 1
                self.take(")")
        if sym is not None:
            if len(sym.arg_sorts) != len(args):
                err = f"operator {sym.name} expects {sym.rank} arguments, got {len(args)}"
            else:
                err = _mismatch(sym.result_sort, expected)
        if err:
            del events[start:]
            events.append((err, None, k))
            return None
        return None if failed else Apply(sym, tuple(args))

    def name(self, name: str, k: int, expected: Optional[Sort]) -> Optional[Term]:
        op = self.ops.get(name)
        if op is not None:
            err = f"operator {name} expects {op.rank} arguments" if op.arg_sorts else None
            err = err or _mismatch(op.result_sort, expected)
            if err is None:
                return Apply(op, ())
        elif name in self.prefixes:
            err = f"action {name} cannot be used as a term"
        else:
            sort = expected or _STATE
            self.events.append((name, sort, k))
            var = self.vars.get(name)
            if var is None or var.sort is not sort:
                var = self.vars[name] = StateVar(name) if sort is _STATE else DistVar(name)
            return var
        self.events.append((err, None, k))
        return None

    def convex(self, k: int, expected: Optional[Sort], depth: int) -> Optional[Term]:
        self.take("{")
        events = self.events
        start = len(events)
        weights: list[Fraction] = []
        args: list = []
        failed = False
        while True:
            weights.append(self.weight())
            self.take(":")
            arg = self.term(_DIST, depth + 2)
            failed = failed or arg is None
            args.append(arg)
            if self.toks[self.i] != ",":
                break
            self.i += 1
        self.take("}")
        total = sum(weights)
        err = (_mismatch(_DIST, expected)
               or (f"weights sum to {brief(total)}, expected 1" if total != 1 else None)
               or ("weights must be positive" if any(w <= 0 for w in weights) else None))
        if err:
            del events[start:]
            events.append((err, None, k))
            return None
        return None if failed else Convex(tuple(weights), tuple(args))

    def rule(self) -> tuple[str, list, list, tuple[Term, str, Term], list]:
        """The name, positive and negative premises and conclusion of a rule,
        and the parts of it that `settle` reports on, in the order a resolver
        meets them: the positive premises, the negative ones, the conclusion."""
        toks = self.toks
        tok = toks[self.i]
        c = tok[:1]
        if not (c in _IDENT_START or c in _DIGITS or c >= "\x80"):
            self.fail("expected a rule name")
        self.i += 1
        name = tok
        if toks[self.i] == "@":
            self.i += 1
            part = toks[self.i]
            if part[:1] not in _IDENT_START:
                self.fail("expected 'ident'")
            self.i += 1
            name = f"{name}@{part}"
        self.take(":")
        pos: list = []
        neg: list = []
        parts: list = []  # (label, events, events) a positive literal
        neg_parts: list = []  # (label, events) a negative one
        turnstile: Optional[int] = None
        while True:
            self.events = source_events = []
            source = self.term(_STATE, 0)
            k = self.i
            arrow = toks[k]
            if not arrow:
                self.fail(_ARROW_MSG)
            self.i = k + 1
            kind = arrow[:2]
            if kind != "--" and kind != "-/":
                self.fail(_ARROW_MSG, k)
            label = arrow[2:-2]
            if label == META and self.action is not None:
                label = self.action
            negative = kind == "-/"
            if negative:
                neg.append((source, label))
                neg_parts += (label, source_events)
            else:
                self.events = target_events = []
                pos.append((source, label, self.term(_DIST, 0)))
                parts += (label, source_events, target_events)
            nxt = toks[self.i]
            if nxt == ",":
                self.i += 1
                continue
            if nxt == "|-":
                if turnstile is not None:
                    self.fail("duplicate '|-'")
                self.i += 1
                turnstile = len(pos) + len(neg)
                continue
            break
        if toks[self.i]:
            self.fail("unexpected trailing tokens in rule")
        if len(pos) + len(neg) - (turnstile or 0) != 1:
            self.fail("a rule needs exactly one conclusion after '|-'")
        if negative:
            self.fail("rule conclusion cannot be a negative literal")
        return name, pos[:-1], neg, pos[-1], parts[:-3] + neg_parts + parts[-3:]

    def settle(self, parts: list) -> list[Diagnostic]:
        """The diagnostics of a rule or term read, as a resolver walking its
        parts in order reports them: a label (a string) that is no action,
        and in each term's events the first sort error, or the first variable
        met at another sort than before."""
        found: list[Diagnostic] = []
        sorts: dict[str, Sort] = {}
        for part in parts:
            if type(part) is str:
                if part not in self.prefixes:
                    found.append(Diagnostic("error", f"unknown action {part}", self.line, 1))
                continue
            for what, sort, k in part:
                if sort is None:
                    message = what
                else:
                    seen = sorts.setdefault(what, sort)
                    if seen is sort:
                        continue
                    message = f"variable {what} used at sorts {seen.value} and {sort.value}"
                found.append(Diagnostic("error", message, self.line, self.col(k)))
                break
        return found


# ---------------------------------------------------------------------------
# Spec parsing

def _rule_line(cur: _Cursor, rules: list[Rule], names: set[str]) -> list[Diagnostic]:
    """Read the rule on cur's line, once per action if it mentions `<A>`,
    and add its instances to `rules`; gives their diagnostics, each once.
    A rule whose `<A>` are all arrow labels is read once and relabelled."""
    metas = [tok for tok in cur.toks if META in tok]
    once = all(tok[2:-2] == META for tok in metas)  # every `<A>` is an arrow's label
    actions = cur.sig.actions if metas else (None,)
    start = cur.i
    found: list[Diagnostic] = []
    for k, action in enumerate(actions or (None,)):
        if k == 0 or not once:
            cur.i, cur.action = start, None if once else action
            read = cur.rule()
        name, pos, neg, (source, label, target), parts = read
        if not actions:  # nothing to instantiate `<A>` with: read for syntax errors only
            break
        if metas:
            name = f"{name}@{action}"
        if metas and once:  # the arrows read `<A>` as their label
            pos = [(s, action if a == META else a, t) for s, a, t in pos]
            neg = [(s, action if a == META else a) for s, a in neg]
            label = action if label == META else label
            parts = [action if part == META else part for part in parts]
        if name in names:
            new = [Diagnostic("error", f"duplicate rule name {name}", cur.line, 1)]
        else:
            new = cur.settle(parts)
            if not new:
                rules.append(Rule(name, tuple(pos), tuple(neg), source, label, target))
                names.add(name)
        for d in new:
            if d not in found:
                found.append(d)
    return found


def try_parse_spec(text: str) -> tuple[Optional[PTSS], list[Diagnostic]]:
    """Parse a `.ptss` source; returns (spec-or-None, diagnostics)."""
    diags: list[Diagnostic] = []
    late: list[Diagnostic] = []  # the rules' sort and name diagnostics, which follow every line's
    name: Optional[str] = None
    actions: list[str] = []
    user_ops: list[FunctionSymbol] = []
    prefix_family = False
    rules: list[Rule] = []
    rule_names: set[str] = set()
    sig: Optional[Signature] = None

    def signature() -> Signature:
        sig = build_signature(actions, user_ops, prefix_family)
        diags.extend(Diagnostic("error", msg, 1, 1) for msg in validate_signature(sig))
        return sig

    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.lstrip(" \t")[:1] in ("", "#"):  # a blank or comment line: no tokens, nothing stray
            continue
        cur = _Cursor(line, line_no, diags)
        toks = cur.toks
        head = toks[0]
        if not head:
            continue
        cur.i = 1
        try:
            if head == "ptss":
                if toks[1][:1] not in _IDENT_START:
                    cur.fail("expected a specification name")
                if name is not None:
                    cur.error("duplicate 'ptss' declaration", 0)
                name = toks[1]
            elif head in ("actions", "op") and sig is not None:
                cur.fail("declarations must precede rules", 0)
            elif head == "actions":
                while True:
                    tok = toks[cur.i]
                    if tok[:1] not in _IDENT_START:
                        cur.fail("expected an action name")
                    actions.append(tok)
                    cur.i += 1
                    if toks[cur.i] != ",":
                        break
                    cur.i += 1
                if toks[cur.i]:
                    cur.fail("expected ',' between actions")
            elif head == "op":
                tok = toks[1]
                if not tok:
                    cur.fail("expected an operator name")
                if tok == "^":
                    cur.fail("liftings are auto-declared; do not declare '^' operators", 1)
                is_family = tok == "pre" and toks[2] == META
                cur.i = 3 if is_family else 2
                cur.take(":")
                arg_sorts: list[Sort] = []
                while toks[cur.i] in _SORTS:
                    arg_sorts.append(_SORTS[toks[cur.i]])
                    cur.i += 1
                if toks[cur.i] != "->":
                    cur.fail("expected 'rarrow'")
                cur.i += 1
                if toks[cur.i] not in _SORTS:
                    cur.fail("expected a result sort ('s' or 'd')")
                result = _SORTS[toks[cur.i]]
                cur.i += 1
                if toks[cur.i]:
                    cur.fail("unexpected trailing tokens in op declaration")
                opname = _text(tok)
                if is_family:
                    if arg_sorts != [_DIST] or result is not _STATE:
                        cur.fail("the prefix family must be declared 'op pre<A> : d -> s'", 0)
                    prefix_family = True
                elif result is not _STATE:
                    cur.fail("only state operators may be declared; liftings are automatic", 0)
                elif opname in ("delta", "oplus"):
                    cur.fail(f"{opname} is a reserved name", 0)
                elif opname in actions:
                    cur.fail(f"operator name {opname} collides with an action", 0)
                elif any(f.name == opname for f in user_ops):
                    cur.fail(f"duplicate operator {opname}", 0)
                else:
                    user_ops.append(FunctionSymbol(opname, tuple(arg_sorts), result))
            elif head == "rule":
                if sig is None:
                    sig = signature()
                late += _rule_line(cur.over(sig), rules, rule_names)
            else:
                cur.error(f"unknown declaration {_text(head)!r}", 0)
        except _Stop:
            pass

    if sig is None:
        sig = signature()
    if name is None:
        diags.append(Diagnostic("error", "missing 'ptss <name>' declaration", 1, 1))
    diags += late
    if any(d.severity == "error" for d in diags):
        return None, diags
    assert name is not None
    return PTSS(name, sig, tuple(rules)), diags


def parse_spec(text: str) -> PTSS:
    spec, diags = try_parse_spec(text)
    if spec is None:
        raise ParseFailure([d for d in diags if d.severity == "error"])
    return spec


def parse_term(text: str, sig: Signature, expected: Optional[Sort] = None) -> Term:
    """Parse a single (open or closed) term against a signature."""
    diags: list[Diagnostic] = []
    cur = _Cursor(text, 1, diags).over(sig)
    term = None
    try:
        term = cur.term(expected, 0)
        if cur.toks[cur.i]:
            cur.fail("unexpected trailing tokens after term")
    except _Stop:
        pass
    # every diagnostic is an error, and a term with a sort error has one
    if not diags and cur.events:
        diags = cur.settle([cur.events])
    if diags:
        raise ParseFailure(diags)
    return term


# a weight as _Cursor.weight reads one: INT or INT/INT, an INT being the lexer's \d+ of at most 4,300 digits
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
    # not a weight: the lexer and the weight reader word the diagnostic
    seen = len(diags)
    cur = _Cursor(text, line_no, diags, pos, end)
    if not cur.toks[0]:  # nothing to point at but the end of the span
        if len(diags) == seen:
            diags.append(Diagnostic("error", "expected a probability", line_no, end + 1))
        return None
    try:
        cur.weight()
        if cur.toks[cur.i]:
            cur.error("a probability is an integer or p/q")
    except _Stop:
        pass
    return None
