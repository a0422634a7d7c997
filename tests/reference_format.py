"""The format checker that `ptsskit.format_check` replaced, kept as a test
oracle: it walks a rule's target once per variable through recursive helpers
and checks the patience-rule shape piece by piece.  It returns the same
`FormatReport` values, so a report of either checker compares with `==`.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from ptsskit.format_check import FormatReport, Position, RuleVerdict, Violation
from ptsskit.parser import PTSS, Rule
from ptsskit.terms import Apply, Dirac, DistVar, FunctionSymbol, Sort, StateVar, Term, render_term, variables


# ---------------------------------------------------------------------------
# Nesting graph and wildness

class NestingGraph(NamedTuple):
    vertices: frozenset[Position]
    edges: frozenset[tuple[Position, Position]]


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
