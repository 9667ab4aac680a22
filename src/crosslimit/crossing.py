"""Crossing-edge geometry: common crossing graphs, eliminability, sharing.

For a hypothesis h, the crossing edges are the pairs with exactly one
endpoint in supp(h); a contrastive observation for h is precisely such a
pair.  For two hypotheses the pairs valid for both form the common crossing
graph, and whether one hypothesis can be ruled out from data for the other
reduces to a coverage question on that graph's vertex set.

Partitioning X by membership in the two supports into regions

    A = both,  B = first only,  C = second only,  D = neither,

an A-vertex has a common-crossing partner iff D is nonempty and a B-vertex
iff C is nonempty, which makes every verdict here exactly computable in the
set algebra.  Non-eliminability happens in exactly three regimes: the first
support is a proper subset of the second (superset), the supports are
incomparable and disjoint, or incomparable, intersecting and jointly missing
part of X (non-covering).

A family's membership-pattern cells generalize the regions.  A pattern is a
member bitmask (bit i for member i), as in `HypothesisClass.meet`, and only
the realized (nonempty) cells are stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .classes import Hypothesis, HypothesisClass
from .space import SymbolicSet
from .streams import Pair, Stream, crosses, paired_stream

#: regimes in which the second hypothesis is NOT eliminable from the first
SUPERSET = "superset"
DISJOINT = "disjoint"
NON_COVERING = "non-covering"
ELIMINABLE = "eliminable"

PATTERN_BOUND = 6  # family size cap for pattern cells and the exact cell dimension


def delta_contains(h: Hypothesis, pair: Pair) -> bool:
    """True iff the pair crosses h's cut (exactly one endpoint positive)."""
    if not h.is_proper_nontrivial():
        raise ValueError(f"{h.id} is not proper nontrivial")
    return crosses(h, pair)


def pair_regions(h: Hypothesis, g: Hypothesis) -> "Regions":
    """The four regions of a proper nontrivial pair with distinct supports, else a ValueError."""
    for x in (h, g):
        if not x.is_proper_nontrivial():
            raise ValueError(f"{x.id} is not proper nontrivial")
    if h.support == g.support:
        raise ValueError(f"{h.id} and {g.id} have identical supports")
    return four_regions(h, g)


@dataclass(frozen=True)
class Regions:
    """The four-way membership partition of X for a hypothesis pair."""

    both: SymbolicSet        # A: in both supports
    first_only: SymbolicSet  # B: first support only
    second_only: SymbolicSet # C: second support only
    neither: SymbolicSet     # D: outside both

    def as_dict(self) -> dict[str, SymbolicSet]:
        return {
            "A": self.both,
            "B": self.first_only,
            "C": self.second_only,
            "D": self.neither,
        }

    def gamma(self) -> SymbolicSet:
        """Vertices incident to some pair crossing both hypotheses.

        Common-crossing edges run between A and D or between B and C, so a
        region contributes its vertices exactly when its partner region is
        nonempty.
        """
        out = SymbolicSet.empty()
        if not self.neither.is_empty():
            out = out.union(self.both)
        if not self.second_only.is_empty():
            out = out.union(self.first_only)
        if not self.first_only.is_empty():
            out = out.union(self.second_only)
        if not self.both.is_empty():
            out = out.union(self.neither)
        return out

    def eliminability(self) -> "EliminabilityVerdict":
        """The eliminability rule on the regions; see :func:`eliminable`."""
        if self.first_only.is_empty():
            # supp(h) strictly below supp(g); D is nonempty because g is proper
            return EliminabilityVerdict(False, SUPERSET)
        if self.second_only.is_empty():
            # supp(g) strictly below supp(h): B-positives have no partner
            return EliminabilityVerdict(True, ELIMINABLE, witness=self.first_only.min_element())
        # incomparable from here on
        if self.both.is_empty():
            return EliminabilityVerdict(False, DISJOINT)
        if self.neither.is_empty():
            # overlapping cover: A-positives have no partner
            return EliminabilityVerdict(True, ELIMINABLE, witness=self.both.min_element())
        return EliminabilityVerdict(False, NON_COVERING)


def four_regions(h: Hypothesis, g: Hypothesis) -> Regions:
    a, b = h.support, g.support
    return Regions(
        both=a.intersect(b),
        first_only=a.difference(b),
        second_only=b.difference(a),
        neither=a.union(b).complement(),
    )


def class_regions(cls: HypothesisClass, i: int, j: int) -> Regions:
    """The four regions of members i < j, from the class's memoised meet and differences."""
    union = cls.members[i].support.union(cls.members[j].support)
    both = cls.meet(1 << i | 1 << j)
    return Regions(both, cls.difference(i, j), cls.difference(j, i), union.complement())


def gamma_vertex_set(h: Hypothesis, g: Hypothesis) -> SymbolicSet:
    """Vertices incident to some pair crossing both hypotheses (:meth:`Regions.gamma`)."""
    return pair_regions(h, g).gamma()


def common_crossing_edges(h: Hypothesis, g: Hypothesis, vertices) -> set[Pair]:
    """All pairs within a finite vertex collection crossing both hypotheses."""
    verts = sorted(set(vertices))
    return {
        Pair.of(x, y)
        for x, y in itertools.combinations(verts, 2)
        if crosses(h, Pair.of(x, y)) and crosses(g, Pair.of(x, y))
    }


@dataclass(frozen=True)
class EliminabilityVerdict:
    """Whether g can be ruled out from data for h, with the regime and witness.

    When eliminable, `witness` is an h-positive with no common-crossing
    partner (the element whose coverage forces a pair invalid for g).
    """

    eliminable: bool
    regime: str
    witness: int | None = None

    def __post_init__(self) -> None:
        barrier = self.regime in (SUPERSET, DISJOINT, NON_COVERING)
        if barrier == self.eliminable:
            raise ValueError(f"regime {self.regime!r} is inconsistent with eliminable={self.eliminable}")


def eliminable(h: Hypothesis, g: Hypothesis) -> EliminabilityVerdict:
    """Classify the pair into eliminable or one of the three barrier regimes.

    g is not eliminable from h iff (A nonempty implies D nonempty) and
    (B nonempty implies C nonempty); equivalently iff supp(h) is contained in
    the common-crossing vertex set.
    """
    return pair_regions(h, g).eliminability()


def overlapping_cover(h: Hypothesis, g: Hypothesis) -> bool:
    """Incomparable supports that intersect and jointly cover X.

    Undefined (raises) when one support contains the other.
    """
    r = pair_regions(h, g)
    if r.first_only.is_empty() or r.second_only.is_empty():
        raise ValueError(
            f"overlapping cover is defined for incomparable supports; "
            f"{h.id} and {g.id} are comparable"
        )
    return not r.both.is_empty() and r.neither.is_empty()


# ----------------------------------------------------------------------
# shared presentations
# ----------------------------------------------------------------------

def shared_presentation_pair(h: Hypothesis, g: Hypothesis) -> Stream | None:
    """A single contrastive stream valid for both targets, when one exists.

    Exists iff supp(h) union supp(g) lies inside the common-crossing vertex
    set.  The stream is the two-member family's: each support element is
    paired with the least partner in its complementary region (A with D,
    B with C and symmetrically).
    """
    stream = shared_presentation_family([h, g])  # checks that both are proper nontrivial
    if h.support == g.support:
        raise ValueError(f"{h.id} and {g.id} have identical supports")
    return None if stream is None else replace(stream, provenance=f"shared-pair({h.id},{g.id})")


# ----------------------------------------------------------------------
# membership-pattern cells and family sharing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PatternCells:
    """The partition of X by joint membership pattern across a family.

    A pattern is a member bitmask (bit i set iff member i is positive), as in
    :meth:`~crosslimit.classes.HypothesisClass.meet`.  cells maps each
    realized pattern to the nonempty symbolic set of examples realizing it;
    the cells partition X, and an unrealized pattern has no entry.
    """

    hypothesis_ids: tuple[str, ...]
    cells: dict[int, SymbolicSet]

    @staticmethod
    def of(family) -> "PatternCells":
        """The realized cells in product order, without a size check.

        By refinement: each cell of the first i members splits by member i
        into `cell - h` (bit i clear) and `cell & h` (bit i set); empty parts
        are dropped as they are made.
        """
        cells = {0: SymbolicSet.universe()}
        for i, h in enumerate(family):
            parts = ((alpha | bit << i, cell & h.support if bit else cell - h.support)
                     for alpha, cell in cells.items() for bit in (0, 1))
            cells = {alpha: part for alpha, part in parts if not part.is_empty()}
        return PatternCells(tuple(h.id for h in family), cells)

    def realized(self) -> list[int]:
        return list(self.cells)

    def pattern_of(self, x: int) -> int:
        for alpha, cell in self.cells.items():
            if cell.contains(x):
                return alpha
        raise AssertionError("cells must partition X")

    def bits(self, alpha: int) -> tuple[int, ...]:
        """The pattern as a 0/1 tuple in member order, for reports."""
        return tuple(alpha >> i & 1 for i in range(len(self.hypothesis_ids)))


def pattern_cells(family: list[Hypothesis]) -> PatternCells:
    if not 2 <= len(family) <= PATTERN_BOUND:
        raise ValueError(
            f"pattern cells support between 2 and {PATTERN_BOUND} hypotheses, got {len(family)}"
        )
    return PatternCells.of(family)


def shared_presentation_family(family: list[Hypothesis]) -> Stream | None:
    """A contrastive stream valid for every family member, when one exists.

    Exists iff every realized nonzero membership pattern has a realized
    complementary pattern; each support element is then paired with the
    least element of the cell complementary to its own pattern.
    """
    for h in family:
        if not h.is_proper_nontrivial():
            raise ValueError(f"{h.id} is not proper nontrivial")
    cells = pattern_cells(list(family))
    full = (1 << len(family)) - 1
    if any(alpha and (full ^ alpha) not in cells.cells for alpha in cells.cells):
        return None

    union = SymbolicSet.empty()
    for h in family:
        union = union.union(h.support)

    def partner_of(x: int) -> int:
        return cells.cells[full ^ cells.pattern_of(x)].min_element()

    ids = ",".join(h.id for h in family)
    return paired_stream(union, partner_of, f"shared-family({ids})", tuple(family))
