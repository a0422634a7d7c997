"""Evaluation of closed distribution terms into finite-support rational
distributions over closed state terms.

A `Distribution` never stores zero-probability entries, so structural
equality is canonical, and its mass is exactly 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Optional

from .errors import PtssError, brief
from .terms import (
    Apply,
    Convex,
    Dirac,
    _STATE,
    Term,
    render_term,
)


_ONE = Fraction(1)


class EvalError(PtssError):
    """A distribution term cannot be evaluated (open, ill-sorted, ...)."""


class Distribution:
    """Finite-support map from closed state terms to positive rationals of
    sum 1, kept as given.  The text is made once, and it is the hash:
    hashing a `Fraction` costs more than a string's cached hash."""

    __slots__ = ("_items", "_support", "_text")

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
        if num < den:
            raise EvalError(f"distribution mass is {brief(Fraction(num, den))}, expected 1")
        support = tuple(sorted(table, key=render_term)) if len(table) > 1 else tuple(table)
        self._items = tuple(zip(support, map(table.__getitem__, support)))
        self._support = support
        self._text = None

    @staticmethod
    def dirac(term: Term) -> "Distribution":
        return Distribution._full(((term, _ONE),))  # a point mass needs none of the checks

    @staticmethod
    def _full(items: tuple[tuple[Term, Fraction], ...], text: Optional[str] = None) -> "Distribution":
        """The distribution of `items`, made without checks, and `text` its repr
        if given: the caller knows the items positive, ordered by text, without
        repeats and of mass 1."""
        dist = object.__new__(Distribution)
        dist._items, dist._support, dist._text = items, tuple([t for t, _ in items]), text
        return dist

    @property
    def support(self) -> tuple[Term, ...]:
        return self._support

    def items(self) -> tuple[tuple[Term, Fraction], ...]:
        return self._items

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Distribution) and self._items == other._items

    def __hash__(self) -> int:
        return hash(repr(self))

    def __repr__(self) -> str:
        if self._text is None:
            self._text = "{" + ", ".join(f"{render_term(t)}: {p}" for t, p in self._items) + "}"
        return self._text


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
    if not theta.closed:  # and so no node below it is open
        raise EvalError(f"cannot evaluate open term {render_term(theta)}")
    stack = [theta]
    while stack:
        t = stack[-1]
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
        return Distribution.dirac(theta.inner)
    if isinstance(theta, Convex):
        # `Convex` holds positive weights of sum 1
        return Distribution([(t, p if q is _ONE else p * q) for p, d in zip(theta.weights, dists) for t, q in d.items()])
    origin = theta.symbol.origin
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
