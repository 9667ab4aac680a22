"""The pairwise rules that the class cell table replaced, kept as its reference.

Every answer here is built from `SymbolicSet` operations on the members'
supports, one pair or one family at a time: the pairwise differences (the
inclusion table), a pair's regions from them and the pair's meet, pattern
cells by refinement member by member, and the verdict rules that read them.
"""

from __future__ import annotations

import itertools

from crosslimit.classes import HypothesisClass
from crosslimit.crossing import A, B, C, D, PatternCells, eliminability
from crosslimit.space import SymbolicSet, intersection_of


def difference(cls: HypothesisClass, i: int, j: int) -> SymbolicSet:
    """supp(member i) minus supp(member j): empty iff supp(i) is inside supp(j)."""
    return cls.members[i].support.difference(cls.members[j].support)


def strictly_below(cls: HypothesisClass, i: int, j: int) -> bool:
    """supp(member i) is a proper subset of supp(member j)."""
    return difference(cls, i, j).is_empty() and not difference(cls, j, i).is_empty()


def class_pair_cells(cls: HypothesisClass, i: int, j: int) -> PatternCells:
    """The regions of members i and j, from their differences and meet."""
    union = cls.members[i].support.union(cls.members[j].support)
    meet = cls.members[i].support.intersect(cls.members[j].support)
    parts = ((D, union.complement()), (C, difference(cls, j, i)),
             (B, difference(cls, i, j)), (A, meet))  # product order
    return PatternCells((cls.members[i].id, cls.members[j].id),
                        {alpha: part for alpha, part in parts if not part.is_empty()})


def refined_cells(family) -> PatternCells:
    """The realized cells in product order, by refinement from the first
    member's split: each cell of the first i members splits by member i into
    `cell - h` (bit i clear) and `cell & h` (bit i set)."""
    first, *rest = family
    parts = ((0, first.support.complement()), (1, first.support))
    cells = {alpha: part for alpha, part in parts if not part.is_empty()}
    for i, h in enumerate(rest, 1):
        parts = ((alpha | bit << i, cell & h.support if bit else cell - h.support)
                 for alpha, cell in cells.items() for bit in (0, 1))
        cells = {alpha: part for alpha, part in parts if not part.is_empty()}
    return PatternCells(tuple(h.id for h in family), cells)


def telltales(cls: HypothesisClass) -> dict[str, frozenset[int]]:
    """Per member g, the least element of supp(g) - supp(f) for each f strictly below g."""
    n = len(cls.members)
    return {g.id: frozenset(difference(cls, j, i).min_element()
                            for i in range(n) if i != j and strictly_below(cls, i, j))
            for j, g in enumerate(cls.members)}


def first_barrier_pair(cls: HypothesisClass) -> tuple[str, str, str] | None:
    """The first incomparable pair, in member order, that is not eliminable."""
    for i, j in itertools.combinations(range(len(cls.members)), 2):
        if difference(cls, i, j).is_empty() or difference(cls, j, i).is_empty():
            continue
        verdict = eliminability(class_pair_cells(cls, i, j))
        if not verdict.eliminable:
            return (cls.members[i].id, cls.members[j].id, verdict.regime)
    return None


def meet(cls: HypothesisClass, space: int) -> SymbolicSet:
    """The intersection of the supports of the members in `space`, a member bitmask."""
    return intersection_of(h.support for i, h in enumerate(cls.members) if space >> i & 1)
