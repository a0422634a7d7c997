"""Least 3-valued stable models over a finite reachable term domain, and
extraction of the associated probabilistic transition system.

The certain/possible pair (CT, PT) is iterated from (empty, everything):
each step derives the transitions bottom-up, checking negative premises
against the opposite component of the previous step.  The initial "possible
everything" relation is never materialized; a negative literal holds in it
only when no rule conclusion could ever produce a matching transition.  The
domain closure derives PT0 once, extending one derivation as the domain
grows, and a spec without negative premises derives nothing more.

Each `stable_model` call compiles every rule once (`_compile`): a premise
source is built from the binding and looked up in the index of derived
transitions, a still unbound target variable takes each derived target as it
is, any other premise target is matched under the binding it extends, and a
part with a variable the rule leaves unbound is refused where it is reached.
The domain holds the roots and is closed under subterms, derived targets'
supports and the premise sources that rules read.  A pass matches a term once
per source pattern, and each rule of that source goes on from the binding.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .distributions import Distribution, EvalError, evaluate
from .errors import BoundError
from .parser import PTSS, Diagnostic, ParseFailure, Rule, read_weight
from .terms import (Apply, Convex, Dirac, DistVar, FunctionSymbol, SortError, StateVar, Term, _STATE, _Record,
                    _match_into, match, opaque_state, render_term, substitute, variables)


class DomainBoundError(BoundError):
    def __init__(self, term: Term, reason: str):
        text = render_term(term)
        text = text if len(text) <= 200 else text[:200] + "..."
        super().__init__(f"{reason}: {text} (depth {term.depth})")


class RuleInstantiationError(BoundError):
    """A rule cannot be instantiated effectively (unbound variables)."""


class NotConvergedError(BoundError):
    pass


class IncompleteError(BoundError):
    """The spec has no associated PTS because its stable model is 3-valued."""


class SymbolicTransition(NamedTuple):
    source: Term
    label: str
    target: Term

    def __repr__(self) -> str:
        return f"{render_term(self.source)} --{self.label}-> {render_term(self.target)}"


class _Bound(NamedTuple):
    roots: tuple[Term, ...]
    max_depth: int = 8
    max_states: int = 512
    max_iterations: int = 64


class DomainBound(_Bound):
    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "DomainBound":
        bound = super().__new__(cls, *args, **kwargs)
        if bound.max_depth <= 0 or bound.max_states <= 0 or bound.max_iterations <= 0:
            raise ValueError("domain bounds must be positive")
        return bound

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too


class ThreeValuedModel(NamedTuple):
    ct: frozenset[SymbolicTransition]
    pt: frozenset[SymbolicTransition]
    iterations: int
    converged: bool
    history: tuple[tuple[frozenset[SymbolicTransition], frozenset[SymbolicTransition]], ...]

    @property
    def is_two_valued(self) -> bool:
        return self.ct == self.pt


class PtsTransition(NamedTuple):
    source: Term
    label: str
    target: Distribution

    def __repr__(self) -> str:
        return f"{render_term(self.source)} --{self.label}-> {self.target!r}"


class PTS(_Record):
    """A PTS is its states and transitions, both in text order, transitions
    without repeats.  `_index` keeps the integer index the deciders build of
    it, which lists each state's transitions."""

    __slots__ = ("states", "transitions", "_index")
    _fields = __slots__[:2]

    def __init__(self, states: tuple[Term, ...], transitions: tuple[PtsTransition, ...]) -> None:
        text = {s: render_term(s) for s in states}
        states = tuple(sorted(states, key=text.__getitem__))
        # equal transitions have equal texts, and texts hash without the Fractions
        keyed = {(text[t.source], t.label, repr(t.target)): t for t in transitions}
        self._init(states, tuple(keyed[k] for k in sorted(keyed)), None)


# ---------------------------------------------------------------------------
# Rule instantiation

Binding = dict[str, Term]


def _builder(t: Term) -> Callable[[Binding], Term]:
    """t's instance under a binding of its variables, by constructors chosen
    once: a variable is read from the binding and a closed term is kept."""
    if t.closed:
        return lambda rho: t
    if isinstance(t, (StateVar, DistVar)):
        return itemgetter(t.name)
    kids = [_builder(k) for k in t.kids]
    if isinstance(t, Dirac):
        inner = kids[0]
        return lambda rho: Dirac(inner(rho))
    make = partial(Apply, t.symbol) if isinstance(t, Apply) else partial(Convex, t.weights)
    return lambda rho: make(tuple([k(rho) for k in kids]))


def _instance(t: Term, bound: set[str], part: str) -> Callable[[Binding], Term]:
    """t's instance under a binding of `bound`, or, where t has another variable, its refusal."""
    if not variables(t) <= bound:
        def unbound(rho: Binding) -> Term:
            raise RuleInstantiationError(f"{part} {render_term(substitute(rho, t))} has unbound variables")
        return unbound
    if t.depth <= 16:  # _builder recurses once a level
        return _builder(t)
    return lambda rho: substitute(rho, t)


def _compile(rules: tuple[Rule, ...]) -> tuple[tuple, ...]:
    """Each rule as (rule, premises, negatives, target), a positive premise
    as (label, target, source_of, target_var, built), a negative one as
    (source_of, label, built).  A positive premise's source is bound by the
    rule's source and earlier premises' targets, the other parts by all
    premises' targets, or refused; `target_var` names an unbound target
    variable, `built` a source that is no variable, so may leave the domain."""
    compiled = []
    for rule in rules:
        bound = variables(rule.source)
        premises = []
        for src, label, tgt in rule.pos_premises:
            target_var = tgt.name if isinstance(tgt, DistVar) and tgt.name not in bound else None
            source_of = _instance(src, bound, f"rule {rule.name}: premise source")
            premises.append((label, tgt, source_of, target_var, not isinstance(src, StateVar)))
            bound |= variables(tgt)
        negatives = [(_instance(src, bound, f"rule {rule.name}: negative premise source"), label,
                      not isinstance(src, StateVar)) for src, label in rule.neg_premises]
        compiled.append((rule, premises, negatives, _instance(rule.target, bound, f"rule {rule.name}: conclusion target")))
    return tuple(compiled)


class _Derived:
    """The transitions derived so far by the compiled `rules`, in the order
    derived, and an index of their targets by (source, label).  An index
    entry remembers the sources whose rule instances read it; a transition
    added to it marks them dirty.  The domain closure's `collect` takes each
    built premise source: a positive one first read, a negative one granted."""

    def __init__(self, rules: tuple[tuple, ...], collect: Optional[Callable[[Term], None]] = None) -> None:
        self.rules = rules
        self.collect = collect
        self.all: dict[SymbolicTransition, None] = {}
        self.index: dict[tuple[Term, str], list[Term]] = {}
        self.readers: dict[tuple[Term, str], set[Term]] = {}
        self.dirty: set[Term] = set()

    def read(self, key: tuple[Term, str], reader: Term, built: bool) -> list[Term]:
        if built and self.collect and key not in self.readers:
            self.collect(key[0])
        self.readers.setdefault(key, set()).add(reader)
        return self.index.get(key, ())

    def add(self, tr: SymbolicTransition) -> None:
        if tr not in self.all:
            self.all[tr] = None
            source, label, target = tr
            key = source, label
            self.index.setdefault(key, []).append(target)
            if key in self.readers:
                self.dirty.update(self.readers[key])


def _instances(
    compiled: tuple, rho0: Binding, derived: _Derived, reader: Term, neg_holds: Callable[[Term, str], bool], max_depth: int
) -> list[Term]:
    """The conclusion targets of a compiled rule from rho0, its source's
    binding: one for each solution of its positive premises, read by the
    steps chosen when it was compiled, whose negative premises hold.  A
    premise is matched into a copy of the binding, as its instance would be:
    a rule uses each variable at one sort, and equal terms are identical."""
    _, premises, negatives, target_of = compiled
    solutions = [rho0]
    for label, ptgt, source_of, target_var, built in premises:
        grown: list[Binding] = []
        for sub in solutions:
            thetas = derived.read((source_of(sub), label), reader, built)
            if target_var is not None:  # nothing to match the target against
                grown += [{**sub, target_var: theta} for theta in thetas]
                continue
            for theta in thetas:
                rho = dict(sub)
                if _match_into(ptgt, theta, rho):
                    grown.append(rho)
        solutions = grown
    targets = []
    for rho in solutions:
        for source_of, label, built in negatives:
            inst = source_of(rho)
            if not neg_holds(inst, label):
                break
            if built and derived.collect:
                derived.collect(inst)
        else:
            target = target_of(rho)
            if target.depth > max_depth:
                raise DomainBoundError(target, "conclusion target exceeds max depth")
            targets.append(target)
    return targets


def _derive(terms: Iterable[Term], neg_holds: Callable[[Term, str], bool], max_depth: int, derived: _Derived) -> _Derived:
    """Extend `derived` to the least fixed point of its rules over the
    sources in `terms` and in `derived`.  A pass takes the rules in their
    order and each rule's sources by depth, then by text, and uses a
    transition as soon as it is derived, so one pass usually derives all and
    the first target past `max_depth` in that order is reported; a later pass
    visits the dirty sources only.  A source pattern that is an application
    only sees the terms with its head symbol."""
    while terms:
        ordered = sorted(terms, key=lambda u: (u.depth, render_term(u)))
        by_head: dict[FunctionSymbol, list[Term]] = {}
        for u in ordered:
            by_head.setdefault(u.symbol, []).append(u)
        derived.dirty = set()
        matches: dict[Term, list[tuple[Term, Binding]]] = {}  # by source pattern: the terms it matches, bound
        for compiled in derived.rules:
            pattern = compiled[0].source
            if pattern not in matches:
                candidates = by_head.get(pattern.symbol, ()) if isinstance(pattern, Apply) else ordered
                matches[pattern] = [(src, rho0) for src in candidates if (rho0 := match(pattern, src)) is not None]
            for src, rho0 in matches[pattern]:
                for target in _instances(compiled, rho0, derived, src, neg_holds, max_depth):
                    derived.add(SymbolicTransition(src, compiled[0].label, target))
        terms = derived.dirty
    return derived


def _pt0_neg_holds(rules: tuple[Rule, ...]) -> Callable[[Term, str], bool]:
    # Against the unmaterialized "possibly everything" start: a negative
    # literal can only be granted when no rule conclusion could match at all.
    return lambda t, a: not any(r.label == a and match(r.source, t) is not None for r in rules)


def _holds_against(trs: frozenset[SymbolicTransition]) -> Callable[[Term, str], bool]:
    present = {(tr.source, tr.label) for tr in trs}
    return lambda t, a: (t, a) not in present


# ---------------------------------------------------------------------------
# Domain closure and the stable-model iteration

def _check_and_collect(term: Term, universe: set[Term], bound: DomainBound) -> None:
    """Add the state subterms of `term` to the universe, in pre-order.  The
    universe is closed under subterms, so the walk stops at collected terms."""
    stack = [term]
    while stack:
        sub = stack.pop()
        if sub in universe:
            continue
        if sub.sort is _STATE:
            if sub.depth > bound.max_depth:
                raise DomainBoundError(sub, "term exceeds max depth")
            universe.add(sub)
            if len(universe) > bound.max_states:
                raise DomainBoundError(sub, "domain exceeds max states")
        stack.extend(reversed(sub.kids))


def _closed_universe(p: PTSS, bound: DomainBound) -> tuple[set[Term], _Derived]:
    """The roots' domain, unordered: closed under subterms, the support of
    every target derived over it with every negative premise granted and the
    premise sources that derivation reads; and that derivation.  It is
    monotone in the domain, so each round extends it from the new terms."""
    universe: set[Term] = set()
    derived = _Derived(_compile(p.rules), lambda t: _check_and_collect(t, universe, bound))
    for root in bound.roots:
        if not root.closed or root.sort is not _STATE:
            raise SortError(f"root must be a closed state term: {render_term(root)}")
        _check_and_collect(root, universe, bound)
    new = set(universe)
    while new:
        done, old = len(derived.all), set(universe)
        _derive(new, lambda t, a: True, bound.max_depth, derived)
        for tr in islice(derived.all, done, None):
            for s in evaluate(tr.target).support:
                if s not in universe:
                    _check_and_collect(s, universe, bound)
        new = universe - old
    return universe, derived


def stable_model(p: PTSS, bound: DomainBound) -> ThreeValuedModel:
    """Iterate the certain/possible pair to its least fixed point over the
    roots' domain (`_closed_universe`).  PT0 grants every negative premise,
    so it is the closure's derivation; without negative premises every step
    derives it again."""
    universe, closure = _closed_universe(p, bound)
    pt0 = frozenset(closure.all)

    def derive(holds: Callable, given: object) -> frozenset[SymbolicTransition]:  # holds(given) only if it derives
        if any(rule.neg_premises for rule in p.rules):
            return frozenset(_derive(universe, holds(given), bound.max_depth, _Derived(closure.rules)).all)
        return pt0

    history = [(derive(_pt0_neg_holds, p.rules), pt0)]
    while len(history) < bound.max_iterations:
        ct, pt = history[-1]
        ct_next = derive(_holds_against, pt)
        history.append((ct_next, ct_next if ct == pt else derive(_holds_against, ct)))
        if history[-1] == history[-2]:
            break
    converged = len(history) > 1 and history[-1] == history[-2]
    return ThreeValuedModel(*history[-1], len(history), converged, tuple(history))


def is_complete(p: PTSS, bound: DomainBound) -> tuple[bool, ThreeValuedModel]:
    model = stable_model(p, bound)
    if not model.converged:
        raise NotConvergedError(
            f"stable model did not converge within {bound.max_iterations} iterations"
        )
    return model.is_two_valued, model


def reachable_pts(p: PTSS, bound: DomainBound) -> PTS:
    """The concrete PTS reachable from the roots; requires a complete spec.
    Symbolic transitions with equal evaluated targets are merged."""
    complete, model = is_complete(p, bound)
    if not complete:
        raise IncompleteError("no associated PTS: the least stable model is not 2-valued")
    by_source: dict[Term, list[SymbolicTransition]] = {}
    for tr in model.ct:
        by_source.setdefault(tr.source, []).append(tr)

    states = set(bound.roots)
    transitions: list[PtsTransition] = []
    todo = list(states)
    while todo:
        s = todo.pop()
        for tr in by_source.get(s, ()):  # derived transitions from s
            pi = evaluate(tr.target)
            transitions.append(PtsTransition(s, tr.label, pi))
            todo += [u for u in pi.support if u not in states]
            states.update(pi.support)
    return PTS(tuple(states), tuple(transitions))


# ---------------------------------------------------------------------------
# Line-oriented PTS text format (export and direct input)

def export_pts(pts: PTS) -> str:
    lines = [f"state {render_term(s)}" for s in pts.states]
    for tr in pts.transitions:  # a target's text is its entries in braces, cached when PTS sorted it
        lines.append(f"trans {render_term(tr.source)} --{tr.label}-> {{ {repr(tr.target)[1:-1]} }}")
    return "\n".join(lines) + "\n"


# a line is blank, `state <name>` or `trans <head>-> { <body> }`, with a comment or none; the head
# ends at the first `->` that blanks and a `{` follow, so a source state may hold `--` or `{`
_LINE = re.compile(r"\s*(?:state \s*([^#]*[^\s#])|trans (?=[^#]*\}\s*(?:#|$))([^#]*?)->\s*\{([^#]*)\})?\s*(?:#.*)?")
_BRACKET_OR_SEPARATOR = re.compile(r"[(){},:]")
# a weight `int` reads as `read_weight` does: at most 4,300 digits a part, a denominator not all zeros
_WEIGHT = re.compile(r"[ \t]*([0-9]{1,4300})(?:/(?=0*[1-9])([0-9]{1,4300}))?[ \t]*")


def _refused(line: str) -> str:
    """Why `_LINE` refuses a line, given without its comment and blanks."""
    if not line.startswith("trans "):
        return f"unknown line {line.split()[0]!r}"
    head, brace, _ = line.partition("{")
    if not (brace and line.endswith("}")):
        return "expected a '{ term: p/q, ... }' distribution"
    head = head.rstrip()  # `_LINE` takes a line whose head before its first `{` ends in `->`
    return "expected '--<label>->'" if head.rfind("--", 0, len(head) - 2) < 0 else "expected '->' after the label"


def _bracketed_entries(line: str, start: int, end: int) -> list[list[str]]:
    """The entries of the body line[start:end], each cut at its `:`s, where
    the `,` and `:` that part them are those outside brackets."""
    entries, depth = [[]], 0
    for m in _BRACKET_OR_SEPARATOR.finditer(line, start, end):
        c = m.group()
        if c in "({":
            depth += 1
        elif c in ")}":
            depth -= 1
        elif depth == 0:
            entries[-1].append(line[start:m.start()])
            start = m.end()
            if c == ",":
                entries.append([])
    entries[-1].append(line[start:end])
    return entries


def _read_distribution(
    line: str, line_no: int, start: int, end: int, states: dict[str, Term], weights: dict[str, tuple], diags: list[Diagnostic]
) -> Optional[Distribution]:
    """The distribution of the body line[start:end], or None if a weight
    text is no weight (`read_weight` reports it); EvalError for any other
    fault.  A weight text of ASCII digits, or of two such runs about a `/`,
    blanks around, is read by `int`; any other by `read_weight`, at a column
    worked out then.  A target of distinct states and mass exactly 1 gets its
    text here, so `PTS` renders none; `Distribution` sums and checks any other."""
    body = line[start:end]
    if "(" in body or ")" in body or "{" in body or "}" in body:  # a state name may hold a term's text
        entries = _bracketed_entries(line, start, end)
    else:
        entries = [entry.split(":") for entry in body.split(",")]
    named: list[tuple[str, tuple[Term, Fraction], str]] = []  # name, item and weight text of each positive entry
    num, den = 0, 1  # the mass so far
    for k, pieces in enumerate(entries):
        if len(pieces) != 2:
            entry = ":".join(pieces)
            if entry.strip():
                raise EvalError(f"malformed distribution entry {entry.strip()!r}")
            continue
        name, w = pieces[0].strip(), pieces[1]
        state = states.get(name)
        if state is None:
            raise EvalError(f"undeclared state {name}")
        weight = weights.get(w)
        if weight is None:
            m = _WEIGHT.fullmatch(w)
            if m is not None:
                p = Fraction(int(m[1]), int(m[2] or 1))
            else:  # read in its line, after the earlier entries and their `,`s, so that a diagnostic has its column
                at = start + sum([len(":".join(e)) + 1 for e in entries[:k]]) + len(pieces[0]) + 1
                p = read_weight(line, line_no, diags, at, at + len(w))
                if p is None:
                    return None
            weight = weights[w] = p, str(p), p.numerator, p.denominator
        p, text, n, d = weight
        if n:  # a zero weight counts for nothing, not even as a repeat
            named.append((name, (state, p), text))
            num, den = num * d + n * den, den * d
    # a denominator past 14,284 bits, which `Distribution` refuses, makes `den` longer
    if num == den and den.bit_length() <= 14284:
        if len(named) == 1:  # most targets are point masses
            name, item, text = named[0]
            return Distribution._full((item,), f"{{{name}: {text}}}")
        named.sort(key=itemgetter(0))  # by name, as `Distribution` sorts; stable, so a state's entries keep their order
        if all([a[0] != b[0] for a, b in zip(named, named[1:])]):
            return Distribution._full(tuple([e[1] for e in named]), "{" + ", ".join([f"{e[0]}: {e[2]}" for e in named]) + "}")
    return Distribution([e[1] for e in named])


def load_pts(text: str) -> PTS:
    """Read the line-oriented PTS format in one pass; state names are opaque.
    The arrow of a `trans` line is the last `--` of its head, so a source may
    hold `--`.  Each state is built once, each distinct weight text read once."""
    diags: list[Diagnostic] = []
    states: dict[str, Term] = {}
    weights: dict[str, tuple] = {}  # a weight text read: its value, the value's text, numerator, denominator
    transitions: list[PtsTransition] = []
    labels: set[str] = set()  # the labels already checked

    def err(message: str, line_no: int) -> None:
        diags.append(Diagnostic(message, line_no, 1))

    for line_no, line in enumerate(text.splitlines(), start=1):
        m = _LINE.fullmatch(line)
        if m is None:
            err(_refused(line.partition("#")[0].strip()), line_no)
            continue
        name, head, _ = m.groups()
        if name in states:
            err(f"duplicate state {name}", line_no)
        elif name is not None:
            states[name] = opaque_state(name)
        elif head is not None:
            src, arrow, label = head.rpartition("--")
            src, label = src.strip(), label.strip()
            if not arrow:
                err("expected '--<label>->'", line_no)
            elif label not in labels and not (label.isascii() and label.isidentifier()):  # [A-Za-z_][A-Za-z0-9_]*
                err(f"label {label!r} is not an action name", line_no)
            elif src not in states:
                err(f"undeclared state {src}", line_no)
            else:
                try:
                    dist = _read_distribution(line, line_no, *m.span(3), states, weights, diags)
                except EvalError as exc:
                    err(str(exc), line_no)
                    continue
                if dist is not None:
                    labels.add(label)
                    transitions.append(PtsTransition(states[src], label, dist))
    if diags:
        raise ParseFailure(diags)
    return PTS(tuple(states.values()), tuple(transitions))
