"""Crossing-edge geometry: common crossing graphs, eliminability, sharing.

For a hypothesis h, the crossing edges are the pairs with exactly one
endpoint in supp(h); a contrastive observation for h is precisely such a
pair.  For a family of hypotheses the pairs valid for every member form the
common crossing graph.

One model describes that graph: the partition of X into membership-pattern
cells.  A pattern is a member bitmask (bit i for member i), as in
`HypothesisClass.meet`, and only the realized (nonempty) cells are stored.
A pair crosses every member of a set S iff its endpoints' patterns are
complementary on S: a cell is *covered* on S when a realized cell complements
it there (`PatternCells.covered`) and *lonely* otherwise.  Every rule reads that:

* gamma, the common-crossing vertex set, is the union of the covered cells;
* a family shares a contrastive presentation iff every cell some member
  holds is covered, and the presentation pairs each element with the least
  element of its complementary cell (:meth:`PatternCells.partner`);
* g is eliminable from h iff h holds a cell lonely on {h, g}, that is iff
  supp(h) is not inside the pair's gamma (:func:`eliminability`), on a
  pair's own cells or a class's alike.  A pair's regions are its 2-member
  cells A = both (0b11), B = first only (0b01), C = second only (0b10) and
  D = neither (0b00), so the lonely cells are A's when D is unrealized and
  B's when C is.  Otherwise one of three barrier regimes holds: the first
  support is a proper subset of the second (superset, B unrealized), the
  supports are incomparable and disjoint (A unrealized), or they are
  incomparable, intersecting and jointly miss part of X (non-covering).

One type, :class:`~crosslimit.classes.PatternCells` (re-exported here), holds the
cells of a pair, a family or a class: a class's own table of them
(`HypothesisClass.table`) answers the verdicts' pairwise questions and the meets.
"""

from __future__ import annotations

import itertools

from .classes import Hypothesis, PatternCells, require_proper
from .space import Record
from .streams import Pair, Stream, crosses, paired_stream

#: regimes in which the second hypothesis is NOT eliminable from the first
SUPERSET = "superset"
DISJOINT = "disjoint"
NON_COVERING = "non-covering"
ELIMINABLE = "eliminable"

#: a pair's regions as 2-member patterns (bit 0 is the first hypothesis)
A, B, C, D = 0b11, 0b01, 0b10, 0b00
REGIONS = {"A": A, "B": B, "C": C, "D": D}

PATTERN_BOUND = 6  # family size cap for the exact cell dimension


def delta_contains(h: Hypothesis, pair: Pair) -> bool:
    """True iff the pair crosses h's cut (exactly one endpoint positive)."""
    require_proper(h)
    return crosses(h, pair)


def common_crossing_edges(h: Hypothesis, g: Hypothesis, vertices) -> set[Pair]:
    """All pairs within a finite vertex collection crossing both hypotheses."""
    verts = sorted(set(vertices))
    return {
        Pair.of(x, y)
        for x, y in itertools.combinations(verts, 2)
        if crosses(h, Pair.of(x, y)) and crosses(g, Pair.of(x, y))
    }


def pair_cells(h: Hypothesis, g: Hypothesis) -> PatternCells:
    """The regions of a proper nontrivial pair with distinct supports, else a ValueError."""
    require_proper(h, g)
    if h.support == g.support:
        raise ValueError(f"{h.id} and {g.id} have identical supports")
    return PatternCells.of((h, g))


# ----------------------------------------------------------------------
# eliminability
# ----------------------------------------------------------------------

class EliminabilityVerdict(Record):
    """Whether g can be ruled out from data for h, with the regime and witness.

    When eliminable, `witness` is an h-positive with no common-crossing
    partner (the element whose coverage forces a pair invalid for g).
    """

    _compared = ("eliminable", "regime", "witness")

    def __init__(self, eliminable: bool, regime: str, witness: int | None = None):
        if (regime in (SUPERSET, DISJOINT, NON_COVERING)) == eliminable:
            raise ValueError(f"regime {regime!r} is inconsistent with eliminable={eliminable}")
        self.__dict__.update(eliminable=eliminable, regime=regime, witness=witness)


def eliminability(cells: PatternCells, i: int = 0, j: int = 1) -> EliminabilityVerdict:
    """The eliminability rule on members i (h) and j (g) of `cells`, a proper pair.

    A cell of h is lonely when no realized cell complements its pattern on
    {h, g} (:meth:`PatternCells.covered`).  Any lonely cell makes g eliminable,
    with the least element of the lonely cells as the witness.  They lie in one
    region, A without D or B without C: both at once would make supp(h) all of
    X.  Otherwise the unrealized region names the barrier.
    """
    h, g = cells.columns[i], cells.columns[j]
    lonely = h & ~cells.covered(1 << i | 1 << j)
    if lonely:
        return EliminabilityVerdict(True, ELIMINABLE, witness=cells.least_of(lonely))
    if not h & ~g:  # no B: supp(h) inside supp(g)
        return EliminabilityVerdict(False, SUPERSET)
    if not h & g:  # no A
        return EliminabilityVerdict(False, DISJOINT)
    return EliminabilityVerdict(False, NON_COVERING)


def eliminable(h: Hypothesis, g: Hypothesis) -> EliminabilityVerdict:
    """Classify the pair into eliminable or one of the three barrier regimes.

    g is not eliminable from h iff neither A nor B is lonely; equivalently
    iff supp(h) is contained in the common-crossing vertex set.
    """
    return eliminability(pair_cells(h, g))


def overlapping_cover(h: Hypothesis, g: Hypothesis) -> bool:
    """Incomparable supports that intersect and jointly cover X.

    Undefined (raises) when one support contains the other.
    """
    cells = pair_cells(h, g).parts
    if B not in cells or C not in cells:
        raise ValueError(
            f"overlapping cover is defined for incomparable supports; "
            f"{h.id} and {g.id} are comparable"
        )
    return A in cells and D not in cells


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
    if stream is None:
        return None
    return Stream(stream.kind, f"shared-pair({h.id},{g.id})", stream.walk, stream.targets)


def shared_presentation_family(family: list[Hypothesis]) -> Stream | None:
    """A contrastive stream valid for every family member, when one exists.

    Exists iff every cell some member holds is covered on the whole family;
    each support element is then paired with the least element of the cell
    complementary to its own pattern.
    """
    require_proper(*family)
    if len(family) < 2:
        raise ValueError(f"a shared presentation needs at least 2 hypotheses, got {len(family)}")
    cells = PatternCells.of(family)
    if cells.held(cells.full) & ~cells.covered(cells.full):
        return None

    union = cells.union(cells.held(cells.full))  # of the supports
    ids = ",".join(h.id for h in family)
    return paired_stream(union, cells.partner, f"shared-family({ids})", tuple(family))
