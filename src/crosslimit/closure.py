"""Edge-induced version spaces, contrastive closure, hollow sets, dimension.

A finite edge set E induces the version space of hypotheses whose cut every
edge crosses; the contrastive closure of E is the intersection of their
supports (bottom when the version space is empty).  E is hollow when the
version space is nonempty yet the closure adds nothing outside E's own
vertices; the closure dimension is the supremum of hollow-set sizes, and its
finiteness is exactly what uniform generation from pair data needs.

One evaluator, :func:`closure_of`, turns a version space into its closure.  A
version space is a member bitmask (bit i for member i), the AND of its
edges' `crossing_mask`s (XORs of memoised member patterns), and the class's
family descriptor (:class:`~crosslimit.classes.FamilyInfo`) gives its
closure: the class's memoised `meet` when the member list is the family, or,
for the punctured family, a closed form from the edges over the infinite
family the members truncate.

The dimension search is likewise layered.  For classes of at most
PATTERN_BOUND members whose closures read only the mask, the cells of
the class's cell table reduce the dimension to a finite computation
(patterns are member bitmasks too, only realized cells are stored, and each
version space reads the table's `inside` and `covered` cell bitmasks): a
hollow set with a vertex in an infinite cell can be regrown edge by edge
(fresh same-cell vertices never change the version space), so the dimension
is infinite as soon as such a set exists; otherwise all hollow sets live
inside the finitely many finite cells and can be counted exactly.  A family
whose global support intersection is infinite has no hollow set at all, so
its dimension is exactly 0.  Other classes fall back to a bounded
hollow-first search that reports a certified lower bound.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .classes import Hypothesis, HypothesisClass
from .crossing import PATTERN_BOUND
from .space import Record, SymbolicSet
from .streams import CONTRASTIVE, Pair, Prefix

EXACT = "exact"
AT_LEAST = "at-least"
INFINITE = "infinite"


class EdgeSet(Record):
    """A finite set of distinct unordered pairs."""

    _compared = ("edges",)

    def __init__(self, edges: frozenset[Pair]):
        object.__setattr__(self, "edges", edges)  # one field: no dict update

    @staticmethod
    def of(pairs) -> "EdgeSet":
        return EdgeSet(frozenset(pairs))

    @staticmethod
    def from_prefix(prefix: Prefix) -> "EdgeSet":
        if prefix.kind != CONTRASTIVE:
            raise ValueError(f"edge sets come from contrastive prefixes, not {prefix.kind!r}")
        return EdgeSet(frozenset(prefix.items))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(sorted(self.edges))

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for pair in self.edges:
            out.update(pair.elements())
        return frozenset(out)

    def vertex_set(self) -> SymbolicSet:
        return SymbolicSet.finite(self.vertices())

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in sorted(self.edges)) + "}"


class ClosureResult(Record):
    """A closure value: a symbolic set, or bottom when no hypothesis fits."""

    _compared = ("value",)

    def __init__(self, value: SymbolicSet | None):
        object.__setattr__(self, "value", value)  # one field: no dict update

    @property
    def is_bottom(self) -> bool:
        return self.value is None

    @staticmethod
    def bottom() -> "ClosureResult":
        return ClosureResult(None)

    def __str__(self) -> str:
        return "bottom" if self.is_bottom else self.value.literal()


# ----------------------------------------------------------------------
# positive-data baseline
# ----------------------------------------------------------------------

def positive_closure(cls: HypothesisClass, xs: list[int]) -> ClosureResult:
    """Intersect the supports of all members containing every given positive."""
    space = (1 << len(cls.members)) - 1
    for x in xs:
        space &= cls.pattern(x)
    return ClosureResult(cls.meet(space)) if space else ClosureResult.bottom()


# ----------------------------------------------------------------------
# edge-induced version spaces and closures
# ----------------------------------------------------------------------

def edge_version_space(cls: HypothesisClass, edge_set: EdgeSet) -> list[Hypothesis]:
    """The listed members crossed by every edge; `closure_of` also sees the
    family's members past the list."""
    return _members_in(cls, _edge_space(cls, edge_set.edges))


def _members_in(cls: HypothesisClass, space: int) -> list[Hypothesis]:
    """The members whose bit is set in `space`, in class order."""
    return [h for i, h in enumerate(cls.members) if space >> i & 1]


def _edge_space(cls: HypothesisClass, edges: Iterable[Pair]) -> int:
    """The members crossed by every edge: the AND of the edges' crossing masks."""
    space = (1 << len(cls.members)) - 1
    for pair in edges:
        space &= crossing_mask(cls, pair)
    return space


def crossing_mask(cls: HypothesisClass, pair: Pair) -> int:
    """Bit i set iff `pair` crosses member i: member i holds exactly one endpoint."""
    return cls.pattern(pair.lo) ^ cls.pattern(pair.hi)


def closure_of(cls: HypothesisClass, space: int, edges: Iterable[Pair]) -> ClosureResult:
    """The closure of the version space `space` (a member bitmask) that `edges`
    induce, as the class's family gives it; bottom when no member fits."""
    return ClosureResult(cls.family.closure(cls, space, edges))


def contrastive_closure(cls: HypothesisClass, edge_set: EdgeSet) -> ClosureResult:
    """Intersection of supports over the edge-induced version space (see
    :func:`closure_of`)."""
    return closure_of(cls, _edge_space(cls, edge_set.edges), edge_set.edges)


def safe_set(cls: HypothesisClass, prefix: Prefix) -> ClosureResult:
    """Closure of the distinct observed pairs: certified positives so far."""
    return contrastive_closure(cls, EdgeSet.from_prefix(prefix))


def is_hollow(cls: HypothesisClass, edge_set: EdgeSet) -> bool:
    """Nonempty version space whose closure stays inside the edge vertices."""
    closure = contrastive_closure(cls, edge_set)
    return not closure.is_bottom and _within_vertices(closure.value, edge_set)


def _within_vertices(closure: SymbolicSet, edge_set: EdgeSet) -> bool:
    return closure.is_finite() and closure.plus <= edge_set.vertices()


# ----------------------------------------------------------------------
# closure dimension
# ----------------------------------------------------------------------

class DimensionReport(Record):
    """Outcome of the hollow-set-size search.

    `exact` carries the dimension and, when it is positive (or zero with an
    empty global support intersection), a verified maximum hollow witness.
    `at-least` is an honest lower bound from the bounded search with its
    witness.  `infinite` certifies unbounded hollow sets via a growable
    witness: the starter edge set plus an edge type with an infinite cell.
    """

    _compared = ("outcome", "dimension", "witness", "search_bounds", "infinite_description",
                 "notes")

    def __init__(self, outcome: str, dimension: int | None, witness: EdgeSet | None,
                 search_bounds: tuple[int, int], infinite_description: str | None = None,
                 notes: tuple[str, ...] = ()):
        self.__dict__.update(outcome=outcome, dimension=dimension, witness=witness,
                             search_bounds=search_bounds,
                             infinite_description=infinite_description, notes=notes)

    def __str__(self) -> str:
        if self.outcome == EXACT:
            return f"exact({self.dimension})"
        if self.outcome == AT_LEAST:
            return f"at-least({self.dimension})"
        return f"infinite [{self.infinite_description}]"


def closure_dimension(
    cls: HypothesisClass,
    max_size: int = 8,
    vertex_horizon: int = 24,
    search_budget: int = 200_000,
) -> DimensionReport:
    """Largest hollow edge set size, exactly when certifiable.

    Classes of at most 6 members whose closures read only the mask get the
    exact cell analysis, and a family with an infinite global support
    intersection gets exact 0 (every closure holds it, so none is hollow);
    other classes get a bounded hollow-first search whose result is a
    verified lower bound (never a wrong exact claim).
    """
    family = cls.family
    if not family.reads_edges and 1 <= len(cls.members) <= PATTERN_BOUND:
        return _cell_dimension(cls, max_size, vertex_horizon)
    if family.intersection(cls).cardinality().is_infinite:
        return DimensionReport(EXACT, 0, None, (max_size, vertex_horizon), notes=(
            "certified by an infinite global intersection; no hollow edge sets exist",))
    return _bounded_search_dimension(cls, max_size, vertex_horizon, search_budget)


def _cell_dimension(cls: HypothesisClass, max_size: int, vertex_horizon: int) -> DimensionReport:
    members, table, bounds = cls.members, cls.table, (max_size, vertex_horizon)
    realized, parts = table.realized(), table.parts  # parts: (least, elements or None: infinite)
    infinite = sum(1 << c for c, (_, elements) in enumerate(parts.values()) if elements is None)
    best_size = None  # None: no hollow set at all
    best_edges: EdgeSet | None = None
    for r in range(1, len(members) + 1):
        for subset in itertools.combinations(range(len(members)), r):
            space = sum(1 << i for i in subset)
            inside = table.inside(space)  # the cells of the closure, meet(space)
            if inside & (infinite | ~table.covered(space)):
                continue  # an infinite closure, or a forced positive that no edge crosses
            menu = [(a, b) for a, b in itertools.combinations(realized, 2)
                    if (a ^ b) & space == space]  # each version-space member crosses a-b edges
            infinite_pair = next(
                ((a, b) for a, b in menu if parts[a][1] is None or parts[b][1] is None), None)
            if infinite_pair is not None:
                desc = (f"version space {{{', '.join(members[i].id for i in subset)}}} keeps "
                        f"closure {cls.meet(space).literal()} while edges between cells "
                        f"{table.bits(infinite_pair[0])} and {table.bits(infinite_pair[1])} "
                        f"can be added without bound")
                # the starter: each forced positive with the least of its first menu partner
                starter = EdgeSet.of(
                    Pair.of(x, next(parts[b if a == alpha else a][0]
                                    for a, b in menu if alpha in (a, b)))
                    for c, (alpha, (_, elements)) in enumerate(parts.items())
                    if inside >> c & 1 for x in elements)
                return DimensionReport(INFINITE, None, starter, bounds, infinite_description=desc,
                                       notes=("certified by cell analysis",))
            total = sum(len(parts[a][1]) * len(parts[b][1]) for a, b in menu)
            if best_size is None or total > best_size:
                best_size = total
                best_edges = EdgeSet.of(Pair.of(x, y) for a, b in menu
                                        for x in parts[a][1] for y in parts[b][1])
    if best_size is None:
        return DimensionReport(EXACT, 0, None, bounds, notes=(
            "certified by cell analysis; no hollow edge sets exist",))
    report = DimensionReport(EXACT, best_size, best_edges, bounds,
                             notes=("certified by cell analysis",))
    if report.witness is not None and not is_hollow(cls, report.witness):
        raise AssertionError("cell analysis produced a non-hollow witness")
    return report


def _bounded_search_dimension(
    cls: HypothesisClass, max_size: int, vertex_horizon: int, budget: int
) -> DimensionReport:
    """Guided depth-first search over edge sets below the vertex horizon.

    A hollow set must cover its own finite closure, so extensions are
    explored hollow ones first, then ones whose closure is finite (the only
    branches that can ever become hollow by covering forced positives), then
    the rest; branches with an empty version space are pruned.  The result
    is a lower bound: the largest verified hollow set found within bounds.

    Each trial carries its version space as a member bitmask, the parent's
    ANDed with the new edge's `crossing_mask`, and asks :func:`closure_of`; a
    level keeps (candidate index, version space, edge) per trial, and builds a
    trial's edge set again only to explore it or record it as the best.
    The candidate edges, the pairs below the horizon in `combinations` order
    less the bottom ones, are drawn as the search first reaches them, so the
    budget, not the horizon, bounds how many are built.
    """
    pairs = (Pair.of(x, y) for x, y in itertools.combinations(range(vertex_horizon), 2))
    masks = ((p, crossing_mask(cls, p)) for p in pairs)
    pending = ((p, mask) for p, mask in masks if not closure_of(cls, mask, (p,)).is_bottom)
    candidates: list[tuple[Pair, int]] = []  # (pair, crossing mask), drawn from `pending`

    def candidate(idx: int) -> tuple[Pair, int] | None:
        while len(candidates) <= idx:
            drawn = next(pending, None)
            if drawn is None:
                return None
            candidates.append(drawn)
        return candidates[idx]

    everyone = (1 << len(cls.members)) - 1
    root = closure_of(cls, everyone, ()).value
    empty = EdgeSet.of([])
    best: tuple[int, EdgeSet | None] = (0, empty if root is not None and root.is_empty() else None)
    spent = 0
    exhausted = False

    def explore(space: int, edges: set[Pair], start: int) -> None:
        nonlocal best, spent, exhausted
        if len(edges) >= max_size or exhausted:
            return
        hollow_ext, finite_ext, other_ext = [], [], []
        for idx in itertools.count(start):
            drawn = candidate(idx)
            if drawn is None:
                break
            if spent >= budget:
                exhausted = True
                break
            pair, mask = drawn
            if pair in edges:
                continue
            spent += 1
            trial = EdgeSet.of(edges | {pair})
            trial_space = space & mask
            result = closure_of(cls, trial_space, trial.edges)
            if result.is_bottom:
                continue
            closure = result.value
            if _within_vertices(closure, trial):
                hollow_ext.append((idx, trial_space, pair))
            elif closure.is_finite():
                finite_ext.append((idx, trial_space, pair))
            else:
                other_ext.append((idx, trial_space, pair))
        for idx, trial_space, pair in hollow_ext:
            if len(edges) + 1 > best[0] or best[1] is None:
                best = (len(edges) + 1, EdgeSet.of(edges | {pair}))
            if best[0] >= max_size:
                return
            explore(trial_space, edges | {pair}, idx + 1)
            if best[0] >= max_size:
                return
        for idx, trial_space, pair in finite_ext + other_ext:
            explore(trial_space, edges | {pair}, idx + 1)
            if best[0] >= max_size or exhausted:
                return

    explore(everyone, set(), 0)
    notes = ["bounded search; dimension is a lower bound"]
    if exhausted:
        notes.append(f"search budget {budget} exhausted")
    return DimensionReport(
        AT_LEAST, best[0], best[1], (max_size, vertex_horizon), notes=tuple(notes)
    )

