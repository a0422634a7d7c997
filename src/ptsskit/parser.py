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

The parser makes one pass, one cursor (`_Cursor`) per text: its tokens are
one `findall` over the text stripped of comments, each line ended by a
newline token, or, if a character is stray, one `finditer` a line, which
words the diagnostics.  A column is worked out only for a diagnostic.  The
recursive descent tells a term's form by its first token and builds
sort-checked, interned terms as it reads, a head after `^` as a plain one.
A rule line is read and settled once: the instance of a `<A>` rule for an
action relabels the reading and gives its `<A>.` prefixes, read as a
placeholder, the action's prefix.  Sort errors follow every line's syntax
errors, in the order a resolver walking the rule meets them: positive
premises, negative ones, conclusion.  `read_weight` reads as oplus does.
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
    lift_symbol,
    validate_signature,
)

META = "<A>"
# the operator a rule's `<A>.` is read as; each of its instances has the action's prefix there
_META_PREFIX = FunctionSymbol(f"{META}.", (_DIST,), _STATE, prefix_action=META)


class Diagnostic(NamedTuple):
    """An error in the input, at its line and column."""

    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: error: {self.message}"


class ParseFailure(PtssError):
    def __init__(self, diagnostics: list[Diagnostic], where: Optional[str] = None):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "parse failed", where)

    def lines(self) -> list[str]:
        # each diagnostic carries its line and column; `where` names the input
        prefix = "" if self.where is None else f"{self.where}:"
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

# A match is a token, a line end or a comment, which runs to its line's end.
# A search skips what no match starts at: blanks, and stray characters, which
# the lexer reports, as it does a line end in a term's text.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(){},:.^/+@]|--(?:[A-Za-z_][A-Za-z0-9_]*|<A>)->"
                       r"|-/(?:[A-Za-z_][A-Za-z0-9_]*|<A>)->|->|\|-|<A>|\d+|\n|#.*")
_NOTE_RE = re.compile("#.*")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
_SORTS = {"s": _STATE, "d": _DIST}


def _text(tok: str) -> str:
    """A token as diagnostics quote it: an arrow by its label."""
    return tok[2:-2] if tok[:2] in ("--", "-/") else tok


def _lex_line(text: str, line_no: int, diags: list[Diagnostic], pos: int, end: int) -> list[str]:
    """The token strings of text[pos:end]; each stray character adds a diagnostic."""
    tokens = []
    for m in (*_TOKEN_RE.finditer(text, pos, end), None):
        if m is not None and m[0] == "\n":  # a line end here is stray
            continue
        stop = end if m is None else m.start()
        diags.extend(Diagnostic(f"unexpected character {c!r}", line_no, j + 1)
                     for j, c in enumerate(text[pos:stop], pos) if c not in " \t")
        if m is not None and m[0][0] != "#":
            tokens.append(m[0])
        pos = m.end() if m else end
    return tokens


def _mismatch(got: Sort, expected: Optional[Sort]) -> Optional[str]:
    if expected is not None and got is not expected:
        return f"term has sort {got.value}, expected {expected.value}"
    return None


class _Stop(PtssError):
    """A syntax error, already reported: the rest of the line is not read."""


# Nesting bound: a deeper term is rejected before it could exhaust the Python
# stack in the walks that recurse: this parser, `_reprefix` and
# `terms._match_into` over the patterns of rules.  Operands count one level,
# and arguments of an operator or of oplus two, as they cost the walks two
# frames.
MAX_NESTING = 800

# the tokens that are no name: each starts a term of its own form, or none
_FORMS = frozenset(["delta", "oplus", "(", "^", META, ")", "{", "}", ",", ":", ".", "/", "@", "|-"])


class _Cursor:
    """The tokens of a text, each line's ended by "\\n", and the reading of
    them into terms over `sig`: a spec's `lines` joined by "\\n", or a term
    or weight text, one line whatever it holds.

    Terms are built as they are read.  A sort error makes the term None and
    is put in `events`, which also holds each variable's sort as its position
    gives it; `settle` reports them as a resolver walking the terms in order
    would.  A syntax error raises `_Stop`.  A column is worked out from
    `text`, the line numbered `line`, whose first token is `start`.
    """

    __slots__ = ("text", "pos", "end", "toks", "i", "start", "line", "diags", "stray", "sig", "ops", "prefixes",
                 "action", "events", "vars", "heads")

    def __init__(self, text: str, line: int, diags: list[Diagnostic], pos: int = 0, end: Optional[int] = None,
                 lines: Optional[list[str]] = None):
        self.text, self.pos, self.end, self.line, self.diags = text, pos, len(text) if end is None else end, line, diags
        self.i = self.start = 0
        self.stray: dict[int, list[Diagnostic]] = {}  # the diagnostics of each later line's stray characters
        bare = _NOTE_RE.sub("", text) if end is None and "#" in text else text  # a comment runs to its line's end
        stop = len(bare) if end is None else end
        self.toks = toks = _TOKEN_RE.findall(bare, pos, stop)
        toks.append("\n")  # the end, which no test of a token but the end's passes
        # a stray character, a line end in a term's text, or a comment in a span
        if (len("".join(toks)) - 1 + bare.count(" ", pos, stop) + bare.count("\t", pos, stop) != stop - pos
                or lines is None and (bare.find("\n", pos, stop) >= 0 or bare.find("#", pos, stop) >= 0)):
            self.toks = toks = []
            for n, piece in enumerate(lines or [text], line):
                toks += (*_lex_line(piece, n, diags if n == line else self.stray.setdefault(n, []), pos, self.end), "\n")

    def over(self, sig: Signature, action: Optional[str] = None) -> "_Cursor":
        """Read terms over `sig`; in a rule, `action` is META and `<A>.` reads as its placeholder prefix."""
        self.sig, self.ops, self.action, self.events, self.vars = sig, sig._names, action, [], {}
        self.prefixes = sig._prefixes if action is None else {
            **sig._prefixes, META: _META_PREFIX if any(sig._prefixes.values()) else None}
        return self

    def col(self, k: int) -> int:
        """The column of token k, or just past the last token for the end."""
        n, end = self.start, 1
        for m in _TOKEN_RE.finditer(self.text, self.pos, self.end):
            if m[0][0] not in "#\n":
                if n == k:
                    return m.start() + 1
                n, end = n + 1, m.start() + 1 + len(_text(m[0]))
        return end

    def error(self, message: str, k: Optional[int] = None) -> None:
        self.diags.append(Diagnostic(message, self.line, self.col(self.i if k is None else k)))

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
        if tok == "\n":
            self.fail("expected a term")
        if depth > MAX_NESTING:
            self.fail(f"term nested more than {MAX_NESTING} levels deep")
        self.i = k + 1
        if tok not in _FORMS and tok[0] != "-":  # a name, and not an arrow
            nxt = toks[k + 1]
            if nxt == "(":
                return self.apply(tok, False, k, expected, depth)
            if nxt != "." or tok[0] not in _IDENT_START:  # a constant or a variable
                op = self.ops.get(tok)
                if op is None and tok not in self.prefixes:
                    sort = expected or _STATE
                    self.events.append((tok, sort, k))
                    var = self.vars.get(tok)
                    if var is None or var.sort is not sort:
                        var = self.vars[tok] = StateVar(tok) if sort is _STATE else DistVar(tok)
                    return var
                err = (f"action {tok} cannot be used as a term" if op is None
                       else f"operator {tok} expects {op.rank} arguments" if op.arg_sorts
                       else _mismatch(op.result_sort, expected))
                return Apply(op, ()) if err is None else self.reject(len(self.events), err, k)
            self.i = k + 2
            f = self.prefixes.get(tok)
            if f is None or expected is _DIST:
                f = self.prefix(tok, False, k, expected)
        elif tok == "(":
            inner = self.term(expected, depth + 1)
            self.take(")")
            return inner
        elif tok == "delta":
            self.take("(")
            if expected is _STATE:
                self.events.append(("term has sort d, expected s", None, k))
            inner = self.term(_STATE, depth + 1)
            self.take(")")
            return None if inner is None or expected is _STATE else Dirac(inner)
        elif tok == "^" or tok == META:  # `<A>.`, or `^` and a head read as a plain one, lifted
            lifted = tok == "^"
            h = k + lifted  # the head's token
            tok = toks[h]
            self.i = h + 1
            c = tok[:1]
            if tok == META:
                self.take(".")
                self.heads = True
                f = self.prefix(self.action, lifted, k, expected)
            elif not (c in _IDENT_START or c in _DIGITS or c == "+" or c >= "\x80"):
                self.fail("expected an operator name after '^'", h)
            elif toks[h + 1] != "." or c not in _IDENT_START:
                return self.apply(tok, True, k, expected, depth)
            else:
                self.i = h + 2
                f = self.prefix(tok, True, k, expected)
        elif tok == "oplus":
            return self.convex(k, expected, depth)
        else:
            self.fail(f"unexpected token {_text(tok)!r} in term", k)
        arg = self.term(_DIST, depth + 1)  # a prefix's operand
        return None if f is None or arg is None else Apply(f, (arg,))

    def prefix(self, act: Optional[str], lifted: bool, k: int, expected: Optional[Sort]) -> Optional[FunctionSymbol]:
        """The operator of a prefix `act.`, or None with its error put in events."""
        f = self.prefixes.get(act)
        if f is not None:
            f = lift_symbol(f) if lifted else f
            err = _mismatch(f.result_sort, expected)
        else:
            err = ("action metavariable <A> is only allowed inside rules" if act is None
                   else f"unknown action {act}" if act not in self.prefixes
                   else "no prefix operator declared (missing 'op pre<A> : d -> s')")
        return f if err is None else self.reject(len(self.events), err, k)

    def reject(self, start: int, err: str, k: int) -> None:
        """No term: the events from `start` on give way to the error `err` of the term at token k."""
        del self.events[start:]
        self.events.append((err, None, k))

    def apply(self, name: str, lifted: bool, k: int, expected: Optional[Sort], depth: int) -> Optional[Term]:
        sym = self.ops.get(name)
        err = f"unknown operator {name}{' (cannot lift)' if lifted else ''}" if sym is None else None
        if lifted and sym is not None:
            sym = lift_symbol(sym)
        toks = self.toks
        start = len(self.events)  # the arguments' events go if the operator has an error
        args: list = []
        failed = False
        if toks[self.i] == "(":
            self.i += 1
            if toks[self.i] == ")":
                self.i += 1
            else:
                sorts = () if sym is None else sym.arg_sorts
                while True:
                    arg = self.term(sorts[len(args)] if len(args) < len(sorts) else None, depth + 2)
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
            return self.reject(start, err, k)
        return None if failed else Apply(sym, tuple(args))

    def convex(self, k: int, expected: Optional[Sort], depth: int) -> Optional[Term]:
        self.take("{")
        start = len(self.events)
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
        num, den = 0, 1  # the sum of the weights, in ints
        for w in weights:
            num, den = num * w.denominator + w.numerator * den, den * w.denominator
        err = (_mismatch(_DIST, expected)
               or (f"weights sum to {brief(Fraction(num, den))}, expected 1" if num != den else None)
               or ("weights must be positive" if not all(weights) else None))
        if err:
            return self.reject(start, err, k)
        return None if failed else Convex(tuple(weights), tuple(args))

    def rule(self) -> tuple[Rule, list]:
        """A rule, and the parts of it that `settle` reports on, in the order
        a resolver meets them: the positive premises, the negative ones, the
        conclusion.  `heads` tells whether a `<A>.` was read."""
        toks = self.toks
        self.heads = False
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
        parts: list = []  # (label, events, events) a positive literal, (label, events) a negative one
        neg_parts: list = []
        turnstile: Optional[int] = None
        while True:
            self.events = source_events = []
            source = self.term(_STATE, 0)
            arrow = toks[self.i]
            kind = arrow[:2]
            if kind != "--" and kind != "-/":
                self.fail("expected '--<label>->' or '-/<label>->'")
            self.i += 1
            label = arrow[2:-2]
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
        if toks[self.i] != "\n":
            self.fail("unexpected trailing tokens in rule")
        if len(pos) + len(neg) - (turnstile or 0) != 1:
            self.fail("a rule needs exactly one conclusion after '|-'")
        if negative:
            self.fail("rule conclusion cannot be a negative literal")
        return Rule(name, tuple(pos[:-1]), tuple(neg), *pos[-1]), parts[:-3] + neg_parts + parts[-3:]

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
                    found.append(Diagnostic(f"unknown action {part}", self.line, 1))
                continue
            for what, sort, k in part:
                if sort is None:
                    message = what
                else:
                    seen = sorts.setdefault(what, sort)
                    if seen is sort:
                        continue
                    message = f"variable {what} used at sorts {seen.value} and {sort.value}"
                found.append(Diagnostic(message, self.line, self.col(k)))
                break
        return found


# ---------------------------------------------------------------------------
# Spec parsing

def _reprefix(t: Term, prefix: Optional[FunctionSymbol]) -> Term:
    """t with its `<A>.` prefixes made `prefix` and their liftings its lifting."""
    if prefix is None or not t.kids:
        return t
    kids = []
    for kid in t.kids:  # not a comprehension, whose frame would make two a level
        kids.append(_reprefix(kid, prefix))
    if type(t) is not Apply:
        return Dirac(kids[0]) if type(t) is Dirac else Convex(t.weights, tuple(kids))
    f = t.symbol
    return Apply(f if f.prefix_action != META else lift_symbol(prefix) if f.origin else prefix, tuple(kids))


def _rule_line(cur: _Cursor, rules: list[Rule], names: set[str]) -> list[Diagnostic]:
    """Read the rule on cur's line and add its instances to `rules`, one per
    action if it mentions `<A>`; gives their diagnostics, each once.  The
    rule is read and settled once: an instance relabels the reading, and
    gives the `<A>.` prefixes in it the action's prefix."""
    read, parts = cur.rule()
    heads = cur.heads
    found: list[Diagnostic] = []
    settled = None
    for action in cur.sig.actions if heads or META in parts else (None,):
        name = read.name if action is None else f"{read.name}@{action}"
        if name in names:
            new = [Diagnostic(f"duplicate rule name {name}", cur.line, 1)]
        else:
            new = settled = cur.settle(parts) if settled is None else settled
            if not new:
                f = cur.sig._prefixes[action] if heads else None
                rules.append(read if action is None else Rule(
                    name, tuple([(_reprefix(s, f), action if a == META else a, _reprefix(t, f))
                                 for s, a, t in read.pos_premises]),
                    tuple([(_reprefix(s, f), action if a == META else a) for s, a in read.neg_premises]),
                    _reprefix(read.source, f), action if read.label == META else read.label, _reprefix(read.target, f)))
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
    user_ops: dict[str, FunctionSymbol] = {}
    prefix_family = False
    rules: list[Rule] = []
    rule_names: set[str] = set()
    sig: Optional[Signature] = None

    def signature() -> Signature:
        sig = build_signature(actions, list(user_ops.values()), prefix_family)
        diags.extend(Diagnostic(msg, 1, 1) for msg in validate_signature(sig))
        return sig

    lines = text.splitlines()
    cur = _Cursor("\n".join(lines), 1, diags, lines=lines)  # each line end a "\n", as the lexer reads them
    toks = cur.toks
    for line_no, line in enumerate(lines, start=1):
        s = cur.i  # the line's first token
        diags += cur.stray.pop(line_no, ())
        head = toks[s]
        if head == "\n":  # a blank or comment line
            cur.i = s + 1
            continue
        end = toks.index("\n", s)
        cur.text, cur.line, cur.start, cur.i = line, line_no, s, s + 1
        try:
            if head == "rule":
                if sig is None:
                    sig = signature()
                    cur.over(sig, META)
                late += _rule_line(cur, rules, rule_names)
            elif head == "ptss":
                if toks[s + 1][:1] not in _IDENT_START:
                    cur.fail("expected a specification name")
                if name is not None:
                    cur.error("duplicate 'ptss' declaration", s)
                name = toks[s + 1]
            elif head in ("actions", "op") and sig is not None:
                cur.fail("declarations must precede rules", s)
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
                if toks[cur.i] != "\n":
                    cur.fail("expected ',' between actions")
            elif head == "op":
                tok = toks[s + 1]
                if tok == "\n":
                    cur.fail("expected an operator name")
                if tok == "^":
                    cur.fail("liftings are auto-declared; do not declare '^' operators", s + 1)
                is_family = tok == "pre" and toks[s + 2] == META
                i = s + 3 if is_family else s + 2
                if toks[i] != ":":
                    cur.fail("expected ':'", i)
                arg_sorts: list[Sort] = []
                while toks[i + 1] in _SORTS:
                    i += 1
                    arg_sorts.append(_SORTS[toks[i]])
                if toks[i + 1] != "->":
                    cur.fail("expected 'rarrow'", i + 1)
                result = _SORTS.get(toks[i + 2])
                if result is None:
                    cur.fail("expected a result sort ('s' or 'd')", i + 2)
                if toks[i + 3] != "\n":
                    cur.fail("unexpected trailing tokens in op declaration", i + 3)
                opname = _text(tok)
                if is_family:
                    if arg_sorts != [_DIST] or result is not _STATE:
                        cur.fail("the prefix family must be declared 'op pre<A> : d -> s'", s)
                    prefix_family = True
                elif result is not _STATE:
                    cur.fail("only state operators may be declared; liftings are automatic", s)
                elif opname in ("delta", "oplus"):
                    cur.fail(f"{opname} is a reserved name", s)
                elif opname in actions:
                    cur.fail(f"operator name {opname} collides with an action", s)
                elif opname in user_ops:
                    cur.fail(f"duplicate operator {opname}", s)
                else:
                    user_ops[opname] = FunctionSymbol(opname, tuple(arg_sorts), result)
            else:
                cur.error(f"unknown declaration {_text(head)!r}", s)
        except _Stop:
            pass
        cur.i = end + 1

    if sig is None:
        sig = signature()
    if name is None:
        diags.append(Diagnostic("missing 'ptss <name>' declaration", 1, 1))
    diags += late
    if diags:
        return None, diags
    assert name is not None
    return PTSS(name, sig, tuple(rules)), diags


def parse_spec(text: str) -> PTSS:
    spec, diags = try_parse_spec(text)
    if spec is None:
        raise ParseFailure(diags)
    return spec


def parse_term(text: str, sig: Signature, expected: Optional[Sort] = None) -> Term:
    """Parse a single (open or closed) term against a signature."""
    diags: list[Diagnostic] = []
    cur = _Cursor(text, 1, diags).over(sig)
    term = None
    try:
        term = cur.term(expected, 0)
        if cur.toks[cur.i] != "\n":
            cur.fail("unexpected trailing tokens after term")
    except _Stop:
        pass
    # every diagnostic is an error, and a term with a sort error has one
    if not diags and cur.events:
        diags = cur.settle([cur.events])
    if diags:
        raise ParseFailure(diags)
    return term


def read_weight(text: str, line_no: int, diags: list[Diagnostic], pos: int, end: int) -> Optional[Fraction]:
    """The weight that fills text[pos:end], read by `_Cursor.weight` as an
    oplus weight is: `INT` or `INT/INT`; anything else adds a diagnostic and
    gives None.  The span holds no `#`: a `.pts` line loses its comment first."""
    seen = len(diags)
    cur = _Cursor(text, line_no, diags, pos, end)
    if cur.toks[0] == "\n":  # nothing to point at but the end of the span
        if len(diags) == seen:
            diags.append(Diagnostic("expected a probability", line_no, end + 1))
        return None
    try:
        weight = cur.weight()
        if cur.toks[cur.i] != "\n":
            cur.error("a probability is an integer or p/q")
        elif len(diags) == seen:
            return weight
    except _Stop:
        pass
    return None
