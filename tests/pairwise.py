"""The pairwise rules that the class cell table replaced, kept as its reference.

Every answer here is built from `SymbolicSet` operations on the members'
supports, one pair or one family at a time: the pairwise differences (the
inclusion table), a pair's regions from them and the pair's meet, pattern
cells by refinement member by member (a plain dict from pattern to cell),
the cells covered on a member set from the pairs that cross it, the
verdict rules that read them, and the cell dimension from each version
space's meet.
"""

from __future__ import annotations

import functools
import itertools

from crosslimit.classes import HypothesisClass
from crosslimit.closure import EXACT, INFINITE, DimensionReport, EdgeSet, crossing_mask
from crosslimit.crossing import (DISJOINT, ELIMINABLE, NON_COVERING, SUPERSET, A, B, C, D,
                                 EliminabilityVerdict)
from crosslimit.space import SymbolicSet, intersection_of
from crosslimit.streams import Pair


def difference(cls: HypothesisClass, i: int, j: int) -> SymbolicSet:
    """supp(member i) minus supp(member j): empty iff supp(i) is inside supp(j)."""
    return cls.members[i].support.difference(cls.members[j].support)


def strictly_below(cls: HypothesisClass, i: int, j: int) -> bool:
    """supp(member i) is a proper subset of supp(member j)."""
    return difference(cls, i, j).is_empty() and not difference(cls, j, i).is_empty()


def class_pair_cells(cls: HypothesisClass, i: int, j: int) -> dict[int, SymbolicSet]:
    """The regions of members i and j, from their differences and meet."""
    union = cls.members[i].support.union(cls.members[j].support)
    meet = cls.members[i].support.intersect(cls.members[j].support)
    parts = ((D, union.complement()), (C, difference(cls, j, i)),
             (B, difference(cls, i, j)), (A, meet))  # product order
    return {alpha: part for alpha, part in parts if not part.is_empty()}


def refined_cells(family) -> dict[int, SymbolicSet]:
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
    return cells


def gamma(cells: dict[int, SymbolicSet], full: int) -> SymbolicSet:
    """The union of the cells whose complementary pattern (`full` ^ it) is realized."""
    out = SymbolicSet.empty()
    for alpha, cell in cells.items():
        if full ^ alpha in cells:
            out = out.union(cell)
    return out


def covered(cls: HypothesisClass, space: int, horizon: int) -> int:
    """The cells met below `horizon`, as a bitmask in order of their least
    elements, whose least element x has some y below `horizon` with a pair
    {x, y} that crosses every member in `space` (a member bitmask)."""
    return sum(1 << c for c, masks in enumerate(crossings(cls, horizon))
               if any(mask & space == space for mask in masks))


@functools.lru_cache(maxsize=1)
def crossings(cls: HypothesisClass, horizon: int) -> tuple[frozenset[int], ...]:
    """Per cell met below `horizon`, in order of least elements, the crossing
    masks of the pairs {x, y}: x its least element, y any other point below `horizon`."""
    least: dict[int, int] = {}  # pattern -> its least element
    for x in range(horizon):
        least.setdefault(cls.pattern(x), x)
    return tuple(frozenset(crossing_mask(cls, Pair.of(x, y)) for y in range(horizon) if y != x)
                 for x in least.values())


def partner(cells: dict[int, SymbolicSet], full: int, x: int) -> int:
    """The least element of the cell complementary to x's; a KeyError when it is unrealized."""
    alpha = next(alpha for alpha, cell in cells.items() if cell.contains(x))
    return cells[full ^ alpha].min_element()


def eliminability(cells: dict[int, SymbolicSet]) -> EliminabilityVerdict:
    """The region rule on a proper pair's regions: a lonely A (no D) or a lonely
    B (no C) makes g eliminable, witnessed by its `min_element`; otherwise the
    missing region names the barrier."""
    for region, partner in ((A, D), (B, C)):
        if region in cells and partner not in cells:
            return EliminabilityVerdict(True, ELIMINABLE, witness=cells[region].min_element())
    if B not in cells:
        return EliminabilityVerdict(False, SUPERSET)
    if A not in cells:
        return EliminabilityVerdict(False, DISJOINT)
    return EliminabilityVerdict(False, NON_COVERING)


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


def meets(cls: HypothesisClass) -> list[SymbolicSet]:
    """`meet` of every member bitmask, indexed by it: each the meet without its
    highest member intersected with that member's support."""
    out = [SymbolicSet.universe()]
    for space in range(1, 1 << len(cls.members)):
        top = space.bit_length() - 1
        out.append(out[space ^ 1 << top].intersect(cls.members[top].support))
    return out


def cell_dimension(cls: HypothesisClass, max_size: int = 8,
                   vertex_horizon: int = 24) -> DimensionReport:
    """The cell analysis of a class of 1-6 members whose closures read only
    the mask, from each version space's meet: a finite meet whose least
    cell elements are all covered on the space gives a hollow set, an
    infinite cell on its menu of crossing cell pairs an infinite dimension,
    and otherwise the menu's size counts its edges."""
    members, table, bounds = cls.members, cls.table, (max_size, vertex_horizon)
    realized, parts = table.realized(), table.parts
    best_size, best_edges = None, None
    for r in range(1, len(members) + 1):
        for subset in itertools.combinations(range(len(members)), r):
            space = sum(1 << i for i in subset)
            closure = meet(cls, space)
            if not closure.is_finite():
                continue
            forced = sum(1 << c for c, x in enumerate(table.least) if closure.contains(x))
            if forced & ~table.covered(space):
                continue
            menu = [(a, b) for a, b in itertools.combinations(realized, 2)
                    if (a ^ b) & space == space]
            infinite_pair = next(
                ((a, b) for a, b in menu if parts[a][1] is None or parts[b][1] is None), None)
            if infinite_pair is not None:
                desc = (f"version space {{{', '.join(members[i].id for i in subset)}}} keeps "
                        f"closure {closure.literal()} while edges between cells "
                        f"{table.bits(infinite_pair[0])} and {table.bits(infinite_pair[1])} "
                        f"can be added without bound")
                return DimensionReport(INFINITE, None, cover_witness(cls, closure, menu),
                                       bounds, infinite_description=desc,
                                       notes=("certified by cell analysis",))
            total = sum(len(parts[a][1]) * len(parts[b][1]) for a, b in menu)
            if best_size is None or total > best_size:
                best_size = total
                best_edges = EdgeSet.of(Pair.of(x, y) for a, b in menu
                                        for x in parts[a][1] for y in parts[b][1])
    if best_size is None:
        return DimensionReport(EXACT, 0, None, bounds, notes=(
            "certified by cell analysis; no hollow edge sets exist",))
    return DimensionReport(EXACT, best_size, best_edges, bounds,
                           notes=("certified by cell analysis",))


def cover_witness(cls: HypothesisClass, closure: SymbolicSet, menu: list) -> EdgeSet:
    """A starter hollow set: one covering edge per forced positive, to the
    least element of the first menu cell that pairs with its cell."""
    pairs, parts = set(), cls.table.parts
    for x in sorted(closure.plus):
        alpha = cls.pattern(x)
        partners = (parts[b if a == alpha else a][0] for a, b in menu if alpha in (a, b))
        first = next((y for y in partners if y != x), None)
        if first is not None:
            pairs.add(Pair.of(x, first))
    return EdgeSet.of(pairs)
