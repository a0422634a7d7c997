"""Static membership check for the congruence-safe rule format, plus an
empirical congruence probe.

Wildness of operator argument positions is a least fixpoint: positions that
receive a positive-premise target variable in some conclusion target are wild,
and wildness propagates along the nesting graph (conclusion-source variables
flowing into argument positions of other operators).  Wild arguments must be
guarded by patience rules and may only be tested by non-tau positive premises;
premise-target variables and wild source variables may only occur at w-nested
positions of the conclusion target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from .bisim import decide
from .engine import DomainBound, reachable_pts
from .errors import PtssError
from .parser import PTSS, Rule
from .terms import (
    Apply,
    Dirac,
    DistVar,
    FunctionSymbol,
    Sort,
    StateVar,
    Term,
    render_term,
    substitute,
    variables,
)

Position = tuple[str, int]  # (state operator name, 1-based argument index)

HOLE = "_"


@dataclass(frozen=True)
class NestingGraph:
    vertices: frozenset[Position]
    edges: frozenset[tuple[Position, Position]]


@dataclass(frozen=True)
class Violation:
    rule: str
    condition: str  # one of 2a, 2b, 2c, 2d, shape
    message: str

    def __str__(self) -> str:
        return f"rule {self.rule}: condition {self.condition}: {self.message}"


@dataclass(frozen=True)
class RuleVerdict:
    rule: str
    kind: str  # "patience" | "safe" | "violating"
    patience_for: Optional[Position] = None
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class FormatReport:
    wildness: tuple[tuple[Position, bool], ...]
    patience: tuple[tuple[Position, str], ...]
    verdicts: tuple[RuleVerdict, ...]
    overall: bool

    def all_violations(self) -> tuple[Violation, ...]:
        out: list[Violation] = []
        for v in self.verdicts:
            out.extend(v.violations)
        return tuple(out)

    def render_text(self) -> str:
        lines = [f"overall: {'pass' if self.overall else 'fail'}"]
        wild = [f"{op}.{i}" for (op, i), w in self.wildness if w]
        lines.append("wild: " + (" ".join(wild) if wild else "(none)"))
        pat = dict(self.patience)
        for (op, i), w in self.wildness:
            if w:
                rule = pat.get((op, i))
                lines.append(f"patience {op}.{i}: " + (rule if rule else "(missing)"))
        for v in self.verdicts:
            if v.kind == "patience" and v.patience_for is not None:
                op, i = v.patience_for
                lines.append(f"rule {v.rule}: patience rule for {op}.{i}")
            elif v.kind == "safe":
                lines.append(f"rule {v.rule}: safe")
            else:
                for violation in v.violations:
                    lines.append(
                        f"rule {v.rule}: violation {violation.condition}: {violation.message}"
                    )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "overall": self.overall,
                "wild": sorted(f"{op}.{i}" for (op, i), w in self.wildness if w),
                "patience": {f"{op}.{i}": r for (op, i), r in self.patience},
                "rules": [
                    {
                        "rule": v.rule,
                        "kind": v.kind,
                        "patience_for": (
                            f"{v.patience_for[0]}.{v.patience_for[1]}" if v.patience_for else None
                        ),
                        "violations": [
                            {"condition": x.condition, "message": x.message}
                            for x in v.violations
                        ],
                    }
                    for v in self.verdicts
                ],
            },
            indent=2,
            sort_keys=True,
        )


class ProbeError(PtssError):
    """The congruence probe's preconditions do not hold."""


@dataclass(frozen=True)
class ProbeViolation:
    context: Term
    left: Term
    right: Term

    def __str__(self) -> str:
        return (
            f"context {render_term(self.context)} separates "
            f"{render_term(self.left)} and {render_term(self.right)}"
        )


# ---------------------------------------------------------------------------
# Nesting graph and wildness

def _origin_position(symbol: FunctionSymbol) -> Optional[str]:
    """State-operator name a target application contributes positions for."""
    if symbol.is_lifted:
        assert symbol.origin is not None
        return symbol.origin.name
    if symbol.result_sort is Sort.STATE:
        return symbol.name
    return None


def _application_positions_of(term: Term, name: str) -> Iterable[Position]:
    """Positions (g, j) such that some application of g or its lifting in
    `term` contains the variable `name` anywhere inside its j-th argument."""
    g = _origin_position(term.symbol) if isinstance(term, Apply) else None
    for j, arg in enumerate(term.kids, start=1):
        if g is not None and name in variables(arg):
            yield (g, j)
        yield from _application_positions_of(arg, name)


def _source_variable_positions(rule: Rule) -> list[tuple[str, int, str]]:
    """(operator, index, variable) for conclusion-source argument positions
    holding a bare variable."""
    src = rule.source
    if not isinstance(src, Apply):
        return []
    return [(src.symbol.name, i, arg.name) for i, arg in enumerate(src.args, start=1) if isinstance(arg, (StateVar, DistVar))]


def build_nesting_graph(p: PTSS) -> NestingGraph:
    vertices = {
        (f.name, i)
        for f in p.signature.state_ops
        for i in range(1, f.rank + 1)
    }
    edges: set[tuple[Position, Position]] = set()
    for rule in p.rules:
        for fname, i, var in _source_variable_positions(rule):
            for pos in _application_positions_of(rule.target, var):
                edges.add(((fname, i), pos))
    return NestingGraph(frozenset(vertices), frozenset(edges))


def classify_wild(p: PTSS, graph: Optional[NestingGraph] = None) -> dict[Position, bool]:
    """Least fixpoint: seed with positions receiving premise-target variables,
    propagate along nesting-graph edges."""
    if graph is None:
        graph = build_nesting_graph(p)
    wild: set[Position] = set()
    for rule in p.rules:
        premise_vars: set[str] = set()
        for _, _, tgt in rule.pos_premises:
            premise_vars |= variables(tgt)
        for var in premise_vars:
            wild.update(_application_positions_of(rule.target, var))
    wild &= graph.vertices
    changed = True
    while changed:
        changed = False
        for src, dst in graph.edges:
            if src in wild and dst not in wild:
                wild.add(dst)
                changed = True
    return {pos: pos in wild for pos in sorted(graph.vertices)}


# ---------------------------------------------------------------------------
# Patience rules

def _patience_shape(rule: Rule) -> Optional[Position]:
    """The (operator, index) this rule is a patience rule for, by shape alone
    (alpha-renaming insensitive), or None."""
    if rule.neg_premises or len(rule.pos_premises) != 1:
        return None
    psrc, plabel, ptgt = rule.pos_premises[0]
    if plabel != "tau" or rule.label != "tau":
        return None
    if not isinstance(psrc, StateVar) or not isinstance(ptgt, DistVar):
        return None
    src = rule.source
    if not isinstance(src, Apply):
        return None
    f = src.symbol
    if f.result_sort is not Sort.STATE:
        return None
    names = []
    index = None
    for i, arg in enumerate(src.args, start=1):
        if not isinstance(arg, (StateVar, DistVar)):
            return None
        names.append(arg.name)
        if arg == psrc:
            index = i
    if index is None or len(set(names)) != len(names) or ptgt.name in names:
        return None
    if f.arg_sorts[index - 1] is not Sort.STATE:
        return None
    tgt = rule.target
    if not isinstance(tgt, Apply) or not tgt.symbol.is_lifted or tgt.symbol.origin != f:
        return None
    for i, (arg, theta) in enumerate(zip(src.args, tgt.args), start=1):
        if i == index:
            if theta != ptgt:
                return None
        elif f.arg_sorts[i - 1] is Sort.STATE:
            if theta != Dirac(arg):
                return None
        else:
            if theta != arg:
                return None
    return (f.name, index)


def detect_patience_rules(p: PTSS) -> dict[Position, str]:
    """First patience rule per argument position, by syntactic shape."""
    out: dict[Position, str] = {}
    for rule in p.rules:
        pos = _patience_shape(rule)
        if pos is not None and pos not in out:
            out[pos] = rule.name
    return out


# ---------------------------------------------------------------------------
# w-nested positions

def _wild_lookup(wildness: dict[Position, bool]) -> Callable[[FunctionSymbol, int], bool]:
    def look(symbol: FunctionSymbol, index: int) -> bool:
        name = _origin_position(symbol)
        if name is None:
            return False
        return wildness.get((name, index), False)

    return look


def _occurrence_flags(term: Term, name: str, ok: bool, look) -> Iterable[bool]:
    """For every occurrence of the variable, whether its context is w-nested."""
    if isinstance(term, (StateVar, DistVar)) and term.name == name:
        yield ok
    for j, arg in enumerate(term.kids, start=1):
        yield from _occurrence_flags(arg, name, ok and (not isinstance(term, Apply) or look(term.symbol, j)), look)


def is_w_nested_occurrence(target: Term, var: str, wildness: dict[Position, bool]) -> bool:
    """True iff every occurrence of `var` in `target` sits under wild argument
    positions only (Dirac and convex nodes are transparent)."""
    flags = list(_occurrence_flags(target, var, True, _wild_lookup(wildness)))
    if not flags:
        raise ValueError(f"variable {var} does not occur in {render_term(target)}")
    return all(flags)


# ---------------------------------------------------------------------------
# The format check

def _check_safe_rule(
    rule: Rule,
    wildness: dict[Position, bool],
    patience: dict[Position, str],
) -> list[Violation]:
    out: list[Violation] = []
    src = rule.source
    if not isinstance(src, Apply):
        out.append(Violation(rule.name, "shape", "conclusion source is not an operator application"))
        return out
    f = src.symbol
    source_vars: list[Optional[str]] = []
    seen: set[str] = set()
    shape_ok = True
    for arg in src.args:
        if not isinstance(arg, (StateVar, DistVar)) or arg.name in seen:
            out.append(
                Violation(
                    rule.name,
                    "shape",
                    "conclusion source arguments must be pairwise distinct variables",
                )
            )
            shape_ok = False
            break
        seen.add(arg.name)
        source_vars.append(arg.name)
    premise_target_vars: list[str] = []
    for _, _, tgt in rule.pos_premises:
        if not isinstance(tgt, DistVar) or tgt.name in seen:
            out.append(
                Violation(
                    rule.name,
                    "shape",
                    "positive premise targets must be pairwise distinct fresh variables",
                )
            )
            shape_ok = False
            break
        seen.add(tgt.name)
        premise_target_vars.append(tgt.name)
    if not shape_ok:
        return out

    look = _wild_lookup(wildness)

    for i, var in enumerate(source_vars, start=1):
        if var is None or not wildness.get((f.name, i), False):
            continue
        has_patience = (f.name, i) in patience
        if has_patience:
            for psrc, plabel, _ in rule.pos_premises:
                if var in variables(psrc):
                    if not isinstance(psrc, StateVar) or plabel == "tau":
                        out.append(
                            Violation(
                                rule.name,
                                "2a",
                                f"wild argument {f.name}.{i} may only be tested by a "
                                f"positive premise '{var} --l-> mu' with l != tau",
                            )
                        )
            for nsrc, _ in rule.neg_premises:
                if var in variables(nsrc):
                    out.append(
                        Violation(
                            rule.name,
                            "2a",
                            f"wild argument {f.name}.{i} cannot be the source of a "
                            f"negative premise",
                        )
                    )
        else:
            tested = any(var in variables(psrc) for psrc, _, _ in rule.pos_premises) or any(
                var in variables(nsrc) for nsrc, _ in rule.neg_premises
            )
            if tested:
                out.append(
                    Violation(
                        rule.name,
                        "2b",
                        f"wild argument {f.name}.{i} has no patience rule and must not "
                        f"occur in premise sources",
                    )
                )

    restricted = list(premise_target_vars)
    for i, var in enumerate(source_vars, start=1):
        if var is not None and wildness.get((f.name, i), False):
            restricted.append(var)
    for var in restricted:
        flags = list(_occurrence_flags(rule.target, var, True, look))
        if flags and not all(flags):
            out.append(
                Violation(
                    rule.name,
                    "2c",
                    f"variable {var} occurs at a non-w-nested position in the target",
                )
            )

    for var in premise_target_vars:
        for psrc, _, _ in rule.pos_premises:
            if var in variables(psrc):
                out.append(
                    Violation(
                        rule.name,
                        "2d",
                        f"premise target {var} occurs in the premise source "
                        f"{render_term(psrc)} (look-ahead)",
                    )
                )
    return out


def check_format(p: PTSS) -> FormatReport:
    """Classify every rule as a patience rule for a wild argument or check the
    safe-rule shape and conditions 2a-2d, reporting all violations."""
    graph = build_nesting_graph(p)
    wildness = classify_wild(p, graph)
    patience = detect_patience_rules(p)
    verdicts: list[RuleVerdict] = []
    for rule in p.rules:
        pos = _patience_shape(rule)
        if pos is not None and wildness.get(pos, False):
            verdicts.append(RuleVerdict(rule.name, "patience", patience_for=pos))
            continue
        violations = _check_safe_rule(rule, wildness, patience)
        if violations:
            verdicts.append(RuleVerdict(rule.name, "violating", violations=tuple(violations)))
        else:
            verdicts.append(RuleVerdict(rule.name, "safe"))
    overall = all(v.kind != "violating" for v in verdicts)
    return FormatReport(
        wildness=tuple(sorted(wildness.items())),
        patience=tuple(sorted(patience.items())),
        verdicts=tuple(verdicts),
        overall=overall,
    )


# ---------------------------------------------------------------------------
# Congruence probing

def _validate_context(context: Term) -> None:
    count = sum(1 for _ in _occurrence_flags(context, HOLE, True, lambda s, i: True))
    if count != 1:
        raise ProbeError(
            f"context {render_term(context)} must contain exactly one hole '{HOLE}'"
        )


def plug(context: Term, term: Term) -> Term:
    return substitute({HOLE: term}, context)


def congruence_probe(
    p: PTSS,
    pairs: list[tuple[Term, Term]],
    contexts: list[Term],
    bound: DomainBound,
    kind: str = "rooted",
) -> list[ProbeViolation]:
    """Wrap each related pair in each context and re-check relatedness.

    Preconditions: the spec is complete over the domain spanned by the pairs
    and wrapped terms, and every pair is `kind`-related before wrapping.
    """
    for c in contexts:
        _validate_context(c)
    roots: list[Term] = []
    for u, v in pairs:
        roots.extend((u, v))
    for c in contexts:
        for u, v in pairs:
            roots.extend((plug(c, u), plug(c, v)))
    related = decide(kind, reachable_pts(p, replace(bound, roots=tuple(dict.fromkeys(roots))))).related
    for u, v in pairs:
        if not related(u, v):
            raise ProbeError(
                f"probe precondition failed: {render_term(u)} and {render_term(v)} "
                f"are not {kind}-related before wrapping"
            )
    violations: list[ProbeViolation] = []
    for c in contexts:
        for u, v in pairs:
            if not related(plug(c, u), plug(c, v)):
                violations.append(ProbeViolation(c, u, v))
    return violations
