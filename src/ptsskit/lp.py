"""Exact rational linear feasibility, the one solver of every decision:
`feasible` pivots integer rows.  Relation lifting and the probabilistic
branching matches sit on boundary cases where floating point would flip
answers.  `max_flow`, over `fractions.Fraction`, decides nothing: the tests
lift by it (`tests/reference_lp.py`) to check `bisim.lift_check`.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Mapping, Sequence

Row = Mapping[int, int]  # column index -> nonzero coefficient


def feasible(rows: Sequence[Row], rhs: Sequence[int]) -> bool:
    """Is there x >= 0 with A x = b?  Phase-1 simplex, Bland's rule.

    Rows are sparse, and rows and right-hand sides integer.  Pivoting is
    fraction-free (Edmonds 1967; Bareiss 1968): after every pivot all rows
    share the denominator `d`, the previous pivot, by which the update
    divides exactly.
    The artificial columns are never stored: they may not re-enter, so only
    their basis indices (after every structural column) are kept, for the
    tie-break.  The last row is the phase-1 objective, the sum of the rows.
    Before pivoting, variables forced to zero and the rows left empty go.
    """
    tab = [row if r >= 0 else {j: -v for j, v in row.items()} for row, r in zip(rows, rhs)]
    b = [abs(r) for r in rhs]
    while True:  # as x >= 0, a row = 0 with one coefficient sign forces its variables to 0
        forced = {j for row, r in zip(tab, b) if not r and row
                  and (min(row.values()) > 0 or max(row.values()) < 0) for j in row}
        if not forced:
            break
        tab = [{j: v for j, v in row.items() if j not in forced} for row in tab]
    if any(r and not row for row, r in zip(tab, b)):
        return False
    tab, b = [row for row in tab if row], [r for row, r in zip(tab, b) if row]
    m = len(tab)
    n = 1 + max((j for row in tab for j in row), default=-1)
    basis = list(range(n, n + m))
    z: dict[int, int] = {}
    for row in tab:
        for j, v in row.items():
            z[j] = z.get(j, 0) + v
    tab.append(z)
    b.append(sum(b))
    d = 1
    while True:
        enter = min((j for j, v in tab[m].items() if v > 0), default=-1)
        if enter < 0:
            return b[m] == 0
        leave, p = -1, 0
        for i in range(m):  # least ratio b[i] / a, then least basis index
            a = tab[i].get(enter, 0)
            if a > 0 and (leave < 0 or b[i] * p < b[leave] * a
                          or (b[i] * p == b[leave] * a and basis[i] < basis[leave])):
                leave, p = i, a
        prow, pb = tab[leave], b[leave]
        for i in range(m + 1):
            f = tab[i].get(enter, 0)
            if i == leave or not f and p == d:
                continue
            new = {j: p * v for j, v in tab[i].items()}
            if f:
                for j, v in prow.items():
                    new[j] = new.get(j, 0) - f * v
            tab[i] = {j: v // d for j, v in new.items() if v}
            b[i] = (p * b[i] - f * pb) // d
        d = p
        basis[leave] = enter


def max_flow(
    num_nodes: int,
    edges: Sequence[tuple[int, int, Fraction]],
    source: int,
    sink: int,
) -> Fraction:
    """Edmonds-Karp over exact rationals; edge list may repeat arcs."""
    cap: list[dict[int, Fraction]] = [dict() for _ in range(num_nodes)]
    for u, v, c in edges:
        if c < 0:
            raise ValueError("negative capacity")
        cap[u][v] = cap[u].get(v, Fraction(0)) + Fraction(c)
        cap[v].setdefault(u, Fraction(0))

    flow = Fraction(0)
    while True:
        parent: list[int] = [-1] * num_nodes
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            return flow
        bottleneck: Fraction | None = None
        v = sink
        while v != source:
            u = parent[v]
            c = cap[u][v]
            bottleneck = c if bottleneck is None or c < bottleneck else bottleneck
            v = u
        assert bottleneck is not None and bottleneck > 0
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow += bottleneck
