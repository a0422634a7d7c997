"""Brute-force probabilistic branching bisimulation for small systems: every
partition of the states is tried as the relation, and those that the
definition oracle (`tests/reference_pbranching.is_bisimulation`) calls a
bisimulation are kept.  The paper's bisimulations are equivalences, so the
coarsest partition kept, their join, is the relation to compute.

Only for systems of at most 6 states (203 partitions)."""

from __future__ import annotations

from typing import Iterator, Sequence

from ptsskit.engine import PTS
from ptsskit.terms import Term
from tests.reference_pbranching import is_bisimulation

Partition = tuple[tuple[Term, ...], ...]  # blocks in state order, each in state order


def partitions(items: Sequence[Term]) -> Iterator[list[list[Term]]]:
    """Every set partition of `items`, each block in the order of `items`."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1:]]


def bisimulation_partitions(pts: PTS) -> list[Partition]:
    """Every partition of the states that is a bisimulation."""
    assert len(pts.states) <= 6, "only for systems of at most 6 states"
    index = {s: i for i, s in enumerate(pts.states)}
    kept = []
    for blocks in partitions(pts.states):
        if is_bisimulation(pts, blocks):
            kept.append(tuple(sorted((tuple(b) for b in blocks), key=lambda b: index[b[0]])))
    return kept


def bisimulation_pairs(pts: PTS) -> frozenset[tuple[Term, Term]]:
    """Every pair that some bisimulation partition relates: the pairs of the
    coarsest one, as the bisimulation partitions are closed under join."""
    return frozenset((s, t) for part in bisimulation_partitions(pts) for b in part for s in b for t in b)


def join(pts: PTS, parts: Sequence[Partition]) -> Partition:
    """The finest partition that each of `parts` refines."""
    parent = {s: s for s in pts.states}

    def root(s: Term) -> Term:
        while parent[s] is not s:
            s = parent[s]
        return s

    for part in parts:
        for block in part:
            for s in block[1:]:
                parent[root(s)] = root(block[0])
    blocks: dict[Term, list[Term]] = {}
    for s in pts.states:
        blocks.setdefault(root(s), []).append(s)
    return tuple(tuple(b) for b in blocks.values())
