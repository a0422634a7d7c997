"""The `.ptss` parser as it was before the one-pass reader, kept as the test
oracle of `ptsskit.parser.parse_term` and `ptsskit.parser.try_parse_spec`.

It makes three passes: the lexer (`tests/reference_front.py`) builds `Token`s,
`_parse_raw_term` and `_parse_rule_line` build sort-unresolved `_R*` nodes and
a `_RawRule`, and `_Resolver.resolve` walks those nodes again to build terms.
A `<A>` rule is parsed once and its raw nodes copied once per action
(`_raw_expand`) before each copy is resolved; every rule is resolved after the
last line is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from ptsskit.errors import brief
from ptsskit.parser import MAX_NESTING, META, PTSS, Diagnostic, ParseFailure, Rule
from ptsskit.terms import (
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
from tests.conftest import state_op
from tests.reference_front import _Cursor, _parse_weight
from tests.reference_front import lex_line as _lex_line


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


class _Resolver:
    def __init__(self, sig: Signature, diags: list[Diagnostic]):
        self.sig = sig
        self.diags = diags
        self.var_sorts: dict[str, Sort] = {}
        # the lifted operator of each name, the first of a name winning, as `state_op` does
        self.dist_ops = {g.name: g for g in reversed(sig.dist_ops)}

    def error(self, message: str, raw: _Raw) -> None:
        self.diags.append(Diagnostic(message, raw.line, raw.col))

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
            op = state_op(self.sig, raw.name) or self.dist_ops.get(raw.name)
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
            f = state_op(self.sig, raw.name)
            if raw.lifted:
                if f is None:
                    self.error(f"unknown operator {raw.name} (cannot lift)", raw)
                    return None
                sym = lift_symbol(f)
            else:
                sym = f if f is not None else self.dist_ops.get(raw.name)
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
            f = state_op(self.sig, f"{raw.action}.")
            if f is None:
                self.error(f"no prefix operator declared (missing 'op pre<A> : d -> s')", raw)
                return None
            sym = lift_symbol(f) if raw.lifted else f
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
            diags.append(Diagnostic(f"unknown action {label}", line, 1))
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
                diags.append(Diagnostic(msg, 1, 1))
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
        diags.append(Diagnostic("missing 'ptss <name>' declaration", 1, 1))

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
                diags.append(Diagnostic(f"duplicate rule name {inst_name}", inst.line, 1))
                continue
            rule = _resolve_rule(inst, inst_name, signature, diags)
            if rule is not None:
                rules.append(rule)
                seen_rule_names.add(inst_name)

    if diags:
        return None, diags
    assert name is not None
    return PTSS(name, signature, tuple(rules)), diags


def parse_spec(text: str) -> PTSS:
    spec, diags = try_parse_spec(text)
    if spec is None:
        raise ParseFailure(diags)
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
