"""Evaluation of closed distribution terms into finite-support rational
distributions over closed state terms.

A `Distribution` never stores zero-probability entries, so structural
equality is canonical.  Sub-distributions (total mass < 1) reuse the same
type; the missing mass is the implicit bottom element used by schedulers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

from .errors import PtssError
from .terms import (
    Apply,
    Convex,
    Dirac,
    DistVar,
    _DIST,
    _STATE,
    StateVar,
    Term,
    is_closed,
    render_term,
)


_ZERO, _ONE = Fraction(0), Fraction(1)


class EvalError(PtssError):
    """A distribution term cannot be evaluated (open, ill-sorted, ...)."""


class Distribution:
    """Finite-support map from closed state terms to positive rationals,
    kept as given.  The text is made once, and it is the hash: hashing a
    `Fraction` costs more than a string's cached hash."""

    __slots__ = ("_items", "_table", "_total", "_support", "_text")

    def __init__(self, items: Iterable[tuple[Term, Fraction]]):
        table: dict[Term, Fraction] = {}
        num, den = 0, 1  # the total mass: Fractions are added only where denominators differ
        for term, p in items:
            pn, pd = p.numerator, p.denominator
            if pn <= 0:
                if pn < 0:
                    raise EvalError(f"negative probability for {render_term(term)}")
                continue
            q = table.get(term)
            q = table[term] = p if q is None else q + p
            # an int of over 14,284 bits has 4,300 digits or more, the most str() prints
            if q.denominator.bit_length() > 14284:
                raise EvalError("a probability has 4300 digits or more")
            if num and pd != den:
                total = Fraction(num, den) + p
                num, den = total.numerator, total.denominator
            else:
                num, den = num + pn, pd
        if num > den:
            raise EvalError("total mass exceeds 1")
        support = tuple(sorted(table, key=render_term)) if len(table) > 1 else tuple(table)
        self._table = table
        self._items = tuple(zip(support, map(table.__getitem__, support)))
        self._support = support
        self._total = _ONE if num == den else Fraction(num, den)
        self._text = None

    @staticmethod
    def dirac(term: Term) -> "Distribution":
        point = object.__new__(Distribution)  # a point mass needs none of the checks
        point._table, point._items, point._support, point._total, point._text = {term: _ONE}, ((term, _ONE),), (term,), _ONE, None
        return point

    @property
    def support(self) -> tuple[Term, ...]:
        return self._support

    @property
    def total_mass(self) -> Fraction:
        return self._total

    @property
    def is_full(self) -> bool:
        return self._total == 1

    def items(self) -> tuple[tuple[Term, Fraction], ...]:
        return self._items

    def get(self, term: Term) -> Fraction:
        return self._table.get(term, _ZERO)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._support)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Distribution) and self._items == other._items

    def __hash__(self) -> int:
        return hash(repr(self))

    def __repr__(self) -> str:
        if self._text is None:
            self._text = "{" + ", ".join(f"{render_term(t)}: {p}" for t, p in self._items) + "}"
        return self._text


def convex_combine(pairs: Iterable[tuple[Fraction, Distribution]]) -> Distribution:
    """Pointwise weighted sum; weights must be positive and sum to at most 1."""
    pairs = [(Fraction(p), d) for p, d in pairs]
    for p, _ in pairs:
        if p <= 0:
            raise EvalError("nonpositive weight in convex combination")
    if sum(p for p, _ in pairs) > 1:
        raise EvalError("convex combination weights exceed 1")
    return Distribution([(t, p if q is _ONE else p * q) for p, d in pairs for t, q in d.items()])


def evaluate(theta: Term) -> Distribution:
    """Semantics of a closed distribution term.

    Dirac is a point mass; oplus is the weighted sum; a lifted operator ^f
    assigns to f(xi_1..xi_n) the product of the argument probabilities over
    f's state-sorted positions, with the dist-sorted positions required to
    equal the corresponding arguments of ^f syntactically (empty product = 1).
    The walk is iterative: a node is evaluated after the arguments it sums
    or multiplies, and its value is kept on the node, so a node is evaluated
    once however many terms share it.  A value refers only to state terms
    that do not contain its node, so no reference cycle forms.
    """
    if theta.value is not None:
        return theta.value
    stack = [theta]
    while stack:
        t = stack[-1]
        if isinstance(t, (StateVar, DistVar)):
            raise EvalError(f"cannot evaluate open term {render_term(t)}")
        if isinstance(t, Apply) and not t.symbol.is_lifted:
            raise EvalError(f"{t.symbol.name} is not a distribution operator")
        if isinstance(t, Apply):
            args = [a for a, s in zip(t.args, t.symbol.origin.arg_sorts) if s is _STATE]
        else:
            args = t.args if isinstance(t, Convex) else ()
        pending = [a for a in args if a.value is None]
        if pending:
            stack += reversed(pending)
        else:
            if stack.pop().value is None:  # a node pending twice is evaluated once
                object.__setattr__(t, "value", _evaluate_node(t, [a.value for a in args]))
    return theta.value


def _evaluate_node(theta: Term, dists: list[Distribution]) -> Distribution:
    """The value of `theta`, given the values of its arguments in `evaluate`."""
    if isinstance(theta, Dirac):
        if not is_closed(theta.inner):
            raise EvalError(f"cannot evaluate open term {render_term(theta)}")
        return Distribution.dirac(theta.inner)
    if isinstance(theta, Convex):
        return convex_combine(zip(theta.weights, dists))
    origin = theta.symbol.origin
    if any(s is _DIST and not is_closed(a) for a, s in zip(theta.args, origin.arg_sorts)):
        raise EvalError(f"cannot evaluate open term {render_term(theta)}")
    items: list[tuple[Term, Fraction]] = []
    for combo in product(*(d.items() for d in dists)):
        picked = iter(combo)
        args = tuple(next(picked)[0] if s is _STATE else a for a, s in zip(theta.args, origin.arg_sorts))
        p = _ONE
        for _, q in combo:
            if q is not _ONE:  # a Dirac argument's weight
                p = q if p is _ONE else p * q
        items.append((Apply(origin, args), p))
    return Distribution(items)
