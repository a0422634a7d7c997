"""The dense phase-1 simplex that `ptsskit.lp.feasible` replaced, kept as
the test oracle for it, and the max-flow lifting that `ptsskit.bisim.lift_check`
replaced, kept as the oracles' own lifting.

`feasible` pivots a full `Fraction` tableau with m artificial columns under
Bland's rule.  Rows are dense coefficient lists.  `integral` scales rational
sparse rows to the integer ones the library's `feasible` takes.
`lift_by_max_flow` lifts a relation by `ptsskit.lp.max_flow`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from ptsskit.distributions import Distribution
from ptsskit.lp import max_flow

Row = Sequence[Fraction]


def feasible(rows: Sequence[Row], rhs: Sequence[Fraction]) -> bool:
    """Is there x >= 0 with A x = b?  Phase-1 simplex, Bland's rule."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return True
    # tableau: n structural columns, m artificial columns, rhs; b normalized >= 0
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        row.append(b)
        tab.append(row)
    basis = [n + i for i in range(m)]
    width = n + m + 1
    # reduced costs for minimizing the artificial sum: z[j] = sum of rows
    z = [sum(tab[i][j] for i in range(m)) for j in range(width)]

    while True:
        enter = -1
        for j in range(n):  # artificials may never re-enter
            if j in basis:
                continue
            if z[j] > 0:
                enter = j
                break
        if enter < 0:
            return z[-1] == 0
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # unbounded in phase 1 cannot happen (objective bounded below by 0)
            return z[-1] == 0
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                factor = tab[i][enter]
                tab[i] = [a - factor * b for a, b in zip(tab[i], tab[leave])]
        factor = z[enter]
        z = [a - factor * b for a, b in zip(z, tab[leave])]
        basis[leave] = enter


def integral(rows: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]) -> tuple[list[dict[int, int]], list[int]]:
    """Rational sparse rows and right-hand sides as the integer ones
    `ptsskit.lp.feasible` takes: each row and its right-hand side times the
    least common multiple of their denominators, without zero coefficients."""
    out_rows, out_rhs = [], []
    for row, r in zip(rows, rhs):
        scale = math.lcm(Fraction(r).denominator, *(Fraction(v).denominator for v in row.values()))
        out_rows.append({j: int(v * scale) for j, v in row.items() if v})
        out_rhs.append(int(r * scale))
    return out_rows, out_rhs


def dense(rows: Sequence[Mapping[int, Fraction]]) -> list[list[Fraction]]:
    """Sparse rows (column -> coefficient) as dense lists, for `feasible`."""
    n = 1 + max((j for row in rows for j in row), default=-1)
    return [[Fraction(row.get(j, 0)) for j in range(n)] for row in rows]


def lift_by_max_flow(partners: Mapping, d1: Distribution, d2: Distribution) -> bool:
    """Does a weight function exist with marginals d1/d2 supported on pairs
    related by `partners`, each state's set of partners?  Exact max-flow
    feasibility on the bipartite support graph (Baier, Engelen &
    Majster-Cederbaum, JCSS 2000): source to each entry of d1 with its
    weight, d1 to d2 along related pairs, each entry of d2 to the sink with
    its weight; the answer is yes when the flow is 1."""
    left, right = d1.items(), d2.items()
    sink = 1 + len(left) + len(right)
    edges: list[tuple[int, int, Fraction]] = []
    for i, (t, p) in enumerate(left, 1):
        edges.append((0, i, p))
        related = partners.get(t, set())
        for j, (u, _) in enumerate(right, 1 + len(left)):
            if u in related:
                edges.append((i, j, Fraction(1)))
    for j, (_, q) in enumerate(right, 1 + len(left)):
        edges.append((j, sink, q))
    return max_flow(sink + 1, edges, 0, sink) == 1
