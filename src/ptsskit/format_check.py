"""Static membership check for the congruence-safe rule format, plus an
empirical congruence probe.

Wildness of operator argument positions is a least fixpoint: positions that
receive a positive-premise target variable in some conclusion target are wild,
and wildness propagates along the nesting graph (conclusion-source variables
flowing into argument positions of other operators).  Wild arguments must be
guarded by patience rules and may only be tested by non-tau positive premises;
premise-target variables and wild source variables may only occur at w-nested
positions of the conclusion target (condition 2c).

Condition 2c holds by construction for any spec whose rule terms use only its
signature's operators, as `parse_spec` guarantees, so it is never reported:
every position above a premise-target variable seeds wildness, and a wild
source position makes wild every position above its variable in the target.

Each rule target is read once, by an iterative walk that records, for every
variable occurrence, the (operator, argument) positions above it (the
occurrence table); the nesting graph, the wildness seeds and probe contexts
read that table.  A patience rule is recognised by building the canonical
patience target from the rule's own source and comparing it with the rule's
target.

The check returns its report as data, a `FormatReport` of per-rule verdicts,
and the probe a list of `ProbeViolation`s; `cli` renders both.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bisim import decide
from .engine import DomainBound, reachable_pts
from .errors import PtssError
from .parser import PTSS, Rule
from .terms import (
    Apply,
    Dirac,
    DistVar,
    Sort,
    StateVar,
    Term,
    lift_symbol,
    render_term,
    substitute,
    variables,
)

Position = tuple[str, int]  # (state operator name, 1-based argument index)
Table = dict[str, list[tuple[Position, ...]]]  # variable -> the positions above each occurrence

HOLE = "_"


class Violation(NamedTuple):
    rule: str
    condition: str  # one of 2a, 2b, 2d, shape; 2c holds by construction, so is never reported
    message: str


class RuleVerdict(NamedTuple):
    rule: str
    kind: str  # "patience" | "safe" | "violating"
    patience_for: Optional[Position] = None
    violations: tuple[Violation, ...] = ()


class FormatReport(NamedTuple):
    wildness: tuple[tuple[Position, bool], ...]
    patience: tuple[tuple[Position, str], ...]
    verdicts: tuple[RuleVerdict, ...]
    overall: bool

    def all_violations(self) -> tuple[Violation, ...]:
        out: list[Violation] = []
        for v in self.verdicts:
            out.extend(v.violations)
        return tuple(out)


class ProbeError(PtssError):
    """The congruence probe's preconditions do not hold."""


class ProbeViolation(NamedTuple):
    context: Term
    left: Term
    right: Term


# ---------------------------------------------------------------------------
# The occurrence table, the nesting graph and wildness

def _occurrences(term: Term) -> Table:
    """For each variable of `term`, one entry per occurrence: the (operator,
    argument) positions above it, innermost first.  A lifted operator counts
    as the operator it lifts; Dirac and convex nodes add none.  One iterative
    walk, which carries the positions above a node as a linked list."""
    out: Table = {}
    stack: list = [(term, None)]
    while stack:
        u, above = stack.pop()
        if u.closed:
            continue
        if not u.kids:  # a variable
            path = []
            while above is not None:
                pos, above = above
                path.append(pos)
            out.setdefault(u.name, []).append(tuple(path))
            continue
        g = None
        if isinstance(u, Apply):  # a lifted operator's positions are its origin's
            f = u.symbol.origin or u.symbol
            g = f.name if f.result_sort is Sort.STATE else None
        stack += [(kid, above if g is None else ((g, j), above)) for j, kid in enumerate(u.kids, start=1)]
    return out


def _above(table: Table, var: str) -> set[Position]:
    """The positions above any occurrence of `var`."""
    return {pos for path in table.get(var, ()) for pos in path}


def _tables(p: PTSS) -> list[Table]:
    return [_occurrences(rule.target) for rule in p.rules]


def _nesting_graph(p: PTSS, tables: list[Table]) -> tuple[set[Position], set[tuple[Position, Position]]]:
    """The vertices and edges of the nesting graph: an edge from each argument
    position of a conclusion source that holds a variable to every position
    above that variable in the target."""
    vertices = {
        (f.name, i)
        for f in p.signature.state_ops
        for i in range(1, f.rank + 1)
    }
    edges: set[tuple[Position, Position]] = set()
    for rule, table in zip(p.rules, tables):
        if isinstance(rule.source, Apply):
            for i, arg in enumerate(rule.source.args, start=1):
                if isinstance(arg, (StateVar, DistVar)):
                    edges.update(((rule.source.symbol.name, i), pos) for pos in _above(table, arg.name))
    return vertices, edges


def classify_wild(p: PTSS) -> dict[Position, bool]:
    """Least fixpoint: seed with positions receiving premise-target variables,
    propagate along nesting-graph edges by a worklist."""
    tables = _tables(p)
    vertices, edges = _nesting_graph(p, tables)
    wild: set[Position] = set()
    for rule, table in zip(p.rules, tables):
        for _, _, tgt in rule.pos_premises:
            for var in variables(tgt):
                wild |= _above(table, var)
    wild &= vertices
    after: dict[Position, list[Position]] = {}
    for src, dst in edges:
        after.setdefault(src, []).append(dst)
    work = list(wild)
    while work:
        for dst in after.get(work.pop(), ()):
            if dst not in wild:
                wild.add(dst)
                work.append(dst)
    return {pos: pos in wild for pos in sorted(vertices)}


# ---------------------------------------------------------------------------
# Patience rules

def _patience_shape(rule: Rule) -> Optional[Position]:
    """The (operator, index) this rule is a patience rule for, or None.

    A patience rule for f.i reads `x_i --tau-> mu |- f(x_1, ..., x_n) --tau-> t`
    with pairwise distinct variables, where t is the canonical target
    `^f(delta(x_1), ..., mu, ..., x_n)`: mu at i, and each other argument
    under delta if it is a state.  That target is built from the rule's own
    source, so the test is insensitive to alpha-renaming, and as terms are
    interned, comparing it with the rule's target is one equality test.
    """
    src = rule.source
    if rule.neg_premises or len(rule.pos_premises) != 1 or rule.label != "tau" or not isinstance(src, Apply):
        return None
    x, label, mu = rule.pos_premises[0]
    args = src.args
    if label != "tau" or not isinstance(x, StateVar) or not isinstance(mu, DistVar) or x not in args:
        return None
    if len({mu.name, *(a.name for a in args if isinstance(a, (StateVar, DistVar)))}) <= len(args):
        return None  # an argument is no variable, or a name occurs twice
    canonical = Apply(
        lift_symbol(src.symbol), tuple(mu if a == x else Dirac(a) if a.sort is Sort.STATE else a for a in args)
    )
    return (src.symbol.name, args.index(x) + 1) if canonical == rule.target else None


# ---------------------------------------------------------------------------
# The format check

def _check_safe_rule(rule: Rule, wildness: dict[Position, bool], patience: dict[Position, str]) -> list[Violation]:
    out: list[Violation] = []

    def flag(condition: str, message: str) -> None:
        out.append(Violation(rule.name, condition, message))

    src = rule.source
    if not isinstance(src, Apply):
        flag("shape", "conclusion source is not an operator application")
        return out
    f = src.symbol
    seen: set[str] = set()
    for arg in src.args:
        if not isinstance(arg, (StateVar, DistVar)) or arg.name in seen:
            flag("shape", "conclusion source arguments must be pairwise distinct variables")
            break
        seen.add(arg.name)
    premise_target_vars: list[str] = []
    for _, _, tgt in rule.pos_premises:
        if not isinstance(tgt, DistVar) or tgt.name in seen:
            flag("shape", "positive premise targets must be pairwise distinct fresh variables")
            break
        seen.add(tgt.name)
        premise_target_vars.append(tgt.name)
    if out:
        return out

    wild_vars = [(i, a.name) for i, a in enumerate(src.args, start=1) if wildness.get((f.name, i), False)]
    for i, var in wild_vars:
        if (f.name, i) in patience:
            for psrc, plabel, _ in rule.pos_premises:
                if var in variables(psrc) and (not isinstance(psrc, StateVar) or plabel == "tau"):
                    flag("2a", f"wild argument {f.name}.{i} may only be tested by a "
                               f"positive premise '{var} --l-> mu' with l != tau")
            for nsrc, _ in rule.neg_premises:
                if var in variables(nsrc):
                    flag("2a", f"wild argument {f.name}.{i} cannot be the source of a negative premise")
        elif any(var in variables(psrc) for psrc, _, _ in rule.pos_premises) or any(
            var in variables(nsrc) for nsrc, _ in rule.neg_premises
        ):
            flag("2b", f"wild argument {f.name}.{i} has no patience rule and must not occur in premise sources")

    for var in premise_target_vars:
        for psrc, _, _ in rule.pos_premises:
            if var in variables(psrc):
                flag("2d", f"premise target {var} occurs in the premise source {render_term(psrc)} (look-ahead)")
    return out


def check_format(p: PTSS) -> FormatReport:
    """Classify every rule as a patience rule for a wild argument or check the
    safe-rule shape and conditions 2a, 2b and 2d, reporting all violations."""
    wildness = classify_wild(p)
    shapes = [_patience_shape(rule) for rule in p.rules]
    patience: dict[Position, str] = {}  # the first patience rule for each position
    for rule, pos in zip(p.rules, shapes):
        if pos is not None:
            patience.setdefault(pos, rule.name)
    verdicts: list[RuleVerdict] = []
    for rule, pos in zip(p.rules, shapes):
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
    if len(_occurrences(context).get(HOLE, ())) != 1:
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
    kind: str,
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
    related = decide(kind, reachable_pts(p, bound._replace(roots=tuple(dict.fromkeys(roots))))).related
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
