"""Probabilistic transition system specifications: a rule DSL, exact-rational
distribution semantics, 3-valued stable models, branching bisimulations, and
a static checker for the congruence-safe rule format."""

from .bisim import (
    EPSILON,
    StateRelation,
    branching_bisim,
    lift_check,
    prob_branching_bisim,
    rooted_branching_bisim,
    weak_combined_reachable,
)
from .distributions import Distribution, convex_combine, evaluate, mass
from .engine import (
    PTS,
    DomainBound,
    PtsTransition,
    SymbolicTransition,
    ThreeValuedModel,
    export_pts,
    is_complete,
    load_pts,
    opaque_state,
    reachable_pts,
    stable_model,
)
from .errors import PtssError
from .format_check import (
    FormatReport,
    build_nesting_graph,
    check_format,
    classify_wild,
    congruence_probe,
    detect_patience_rules,
    is_w_nested_occurrence,
)
from .parser import PTSS, Diagnostic, ParseFailure, Rule, parse_spec, parse_term, render
from .terms import (
    Apply,
    Convex,
    Dirac,
    DistVar,
    FunctionSymbol,
    Signature,
    Sort,
    StateVar,
    Substitution,
    Term,
    build_signature,
    match,
    render_term,
    sort_of,
    substitute,
    validate_signature,
)

__version__ = "0.1.0"
