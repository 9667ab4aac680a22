"""Hypotheses, hypothesis classes, the witness-class zoo, and class-spec IO.

A hypothesis is a binary predicate given extensionally by its support, a
:class:`~crosslimit.space.SymbolicSet`.  A class is an ordered finite tuple
of members; the order is the fixed enumeration used by every least-index
tie-break in the learners.

Every class carries a `family` descriptor, a :class:`FamilyInfo`, which
records the construction rule and answers the family's questions: the
closure of a version space, the global support intersection, the eventual
core, and the members past the member list.  The base descriptor answers
them for a family that is its member list.  The punctured family's
descriptor, :class:`PuncturedFamily`, answers them over the infinite family
its members truncate, in closed form.  The co-singleton family
{X minus {s} : s in X} is as large as X itself, so a class holds an explicit
slice of it; its descriptor, :class:`CoSingletonClass`, builds any member on
demand.  Closures, verdicts, learners and the CLI ask the descriptor and
never test which family a class comes from.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import cached_property
from math import lcm
from typing import Callable, Iterable

from .space import (MAX_MODULUS, Record, SymbolicSet, _canonical, _least, _lift_mask,
                    _residues_of, parse_set_literal)

# Entries per memo of a class: all meets of up to three of 17 members, or
# the patterns of 1024 points, and a memory bound however long a command runs.
MEMO_BOUND = 1024
TABLE_CAP = 1 << 32  # visited nodes times lifted width: the work a cell table may do
EVENS = SymbolicSet.residue_class(2, {0})
ODDS = SymbolicSet.residue_class(2, {1})


class Hypothesis(Record):
    """A binary hypothesis, identified by name, given by its positive set."""

    _compared = ("id", "support")

    def __init__(self, id: str, support: SymbolicSet):
        self.__dict__.update(id=id, support=support)

    def __eq__(self, other):  # written out, as for SymbolicSet
        if other.__class__ is self.__class__:
            return (self.id, self.support) == (other.id, other.support)
        return NotImplemented

    def __hash__(self):
        return hash((self.id, self.support))

    def contains(self, x: int) -> bool:
        return self.support.contains(x)

    def is_proper_nontrivial(self) -> bool:  # all of X: every residue, no point removed
        s = self.support
        return not s.is_empty() and (s.mask != (1 << s.modulus) - 1 or bool(s.minus))

    def __str__(self) -> str:
        return f"{self.id}: {self.support.literal()}"


def is_proper_nontrivial(h: Hypothesis) -> bool:
    """Support is neither empty nor all of X (exact, via the set algebra)."""
    return h.is_proper_nontrivial()


def require_proper(*hypotheses: Hypothesis) -> None:
    """A ValueError naming the first of `hypotheses` whose support is empty or all of X."""
    for h in hypotheses:
        if not h.is_proper_nontrivial():
            raise ValueError(f"{h.id} is not proper nontrivial")


class FamilyInfo(Record):
    """A class's construction rule, and the rules of the family behind it.

    `kind` names the family (empty for a class given by its members alone);
    `params` are its integer parameters in construction order (truncation
    level last where present).  The methods answer, for the class `cls`
    whose family this is: the closure of the version space `space` (a member
    bitmask) that the pairs `edges` induce, None for bottom; the global
    support intersection over the whole family; an eventual core, a set whose
    ascending enumeration eventually lies in every member's support, or None;
    the limit of the members past the member list, and the member past it
    that leaves out `hole`, or None.  This base descriptor answers for a
    family that is its member list; :class:`PuncturedFamily` answers for an
    infinite family, and its `closure` reads the edges as well as the mask.
    """

    _compared = ("kind", "params")
    reads_edges = False
    identifier = "eligibility"  # the contrastive identifier that fits the family

    def __init__(self, kind: str = "", params: tuple[int, ...] = ()):
        self.__dict__.update(kind=kind, params=params)

    def describe(self) -> str:
        if self.params:
            return f"{self.kind}({', '.join(map(str, self.params))})"
        return self.kind

    def closure(self, cls: HypothesisClass, space: int, edges) -> SymbolicSet | None:
        return cls.meet(space) if space else None

    def intersection(self, cls: HypothesisClass) -> SymbolicSet:
        return cls.global_support_intersection()

    def eventual_core(self, cls: HypothesisClass) -> SymbolicSet | None:
        core = self.intersection(cls)
        return core if core.cardinality().is_infinite else None

    def limit(self) -> Hypothesis | None:
        return None

    def member(self, hole: int) -> Hypothesis | None:
        return None


class PuncturedFamily(FamilyInfo):
    """The infinite punctured family behind every truncation of it.

    The limit hypothesis has support `base` (the evens); the puncture at a
    hole a of the base has support base minus {a}, and it is member m when
    a = a_m = 2(m-1).  Closures, the global intersection, the eventual core
    and verdicts are those of the infinite family, not of the truncation.
    """

    reads_edges = True

    @cached_property
    def base(self) -> SymbolicSet:  # one per descriptor, not shared between commands
        return SymbolicSet.residue_class(2, {0})

    def limit(self) -> Hypothesis:
        return Hypothesis("h_inf", self.base)

    def member(self, hole: int) -> Hypothesis:
        """The puncture that removes `hole` from the base."""
        if not self.base.contains(hole):
            raise ValueError(f"{hole} is not an element of the punctured base")
        return Hypothesis(f"h{hole // 2 + 1}", self.base.difference(SymbolicSet.finite({hole})))

    def closure(self, cls: HypothesisClass, space: int, edges) -> SymbolicSet | None:
        """Closed form from one pass over the edges.  An edge is bad when both
        its ends lie on one side of the base, so the limit fits unless some
        edge is bad.  The puncture at hole a crosses an edge at a iff it is bad
        and any other edge as the limit does: it fits iff the edges at a are
        exactly the bad edges.  Where the limit fits, the touched holes remain."""
        in_base, bad, at_bad, at_good = self.base.contains, 0, Counter(), set()
        for pair in edges:
            holes = [x for x in pair if in_base(x)]
            if len(holes) == 1:
                at_good.add(holes[0])
            else:
                bad += 1
                at_bad.update(holes)  # the bad edges at each hole
        if not bad:
            return SymbolicSet.finite(at_good)
        passing = [a for a, n in at_bad.items() if n == bad and a not in at_good]
        return self.base.difference(SymbolicSet.finite(passing)) if passing else None

    def intersection(self, cls: HypothesisClass) -> SymbolicSet:
        return SymbolicSet.empty()  # each element of the base is some puncture's hole

    def eventual_core(self, cls: HypothesisClass) -> SymbolicSet:
        return self.base  # each member misses at most its own hole of it


class CoSingletonClass(FamilyInfo):
    """The co-singleton family {h_s : s in X} with supp(h_s) = X minus {s}.

    As large as the example space, so a class holds the explicit slice
    {h_s : s < n} of it, which is the family for closures, cores and
    verdicts.  `member` builds any h_s, for targets past the slice and for
    the absence-count identifier, which runs over the whole family.
    """

    identifier = "absence-count"

    def __init__(self, kind: str = "co-singleton-slice", params: tuple[int, ...] = ()):
        super().__init__(kind, params)

    def member(self, hole: int) -> Hypothesis:
        if hole < 0:
            raise ValueError("hole must be a natural number")
        return Hypothesis(f"h{hole}", SymbolicSet.cofinite({hole}))

    def explicit_slice(self, count: int) -> HypothesisClass:
        """The explicit class {h_s : s < count}, in hole order."""
        if count < 2:
            raise ValueError("co-singleton slice needs truncation >= 2")
        return HypothesisClass(
            tuple(self.member(s) for s in range(count)),
            uus_claimed=True,
            family=CoSingletonClass(params=(count,)),
        )


def cell_parts(cells: PatternCells) -> dict[int, tuple[int, frozenset[int] | None]]:
    """Each realized pattern of `cells` mapped to its cell's least element and
    elements (None: infinite), by depth-first refinement of the lifted masks,
    one alive per level, then each exception point moved to its own pattern.
    Past TABLE_CAP (lifted masks and visited nodes times L), a ValueError."""
    width, k = cells.width, len(cells.supports)
    budget = TABLE_CAP // width - k  # the nodes left once the lifted masks count
    past_cap = ValueError(f"the cell table of a class of {k} members with lcm {width} "
                          f"passes TABLE_CAP = {TABLE_CAP} (masks and nodes times lcm)")
    if budget < 1:
        raise past_cap
    plus, minus = defaultdict(set), defaultdict(set)
    for x, (base, own) in cells.points.items():
        minus[base].add(x)
        plus[own].add(x)
    parts, stack = {}, [(0, 0, (1 << width) - 1)]  # (member, pattern, residues), 0 on top
    while stack:
        budget -= 1
        if budget < 0:
            raise past_cap
        i, alpha, mask = stack.pop()
        if i < k:
            inside = mask & cells.lifted[i]
            stack += [(i + 1, alpha | 1 << i, inside)] if inside else []
            stack += [(i + 1, alpha, mask ^ inside)] if inside != mask else []
            continue
        least = _least(width, mask, frozenset(plus.pop(alpha, ())), frozenset(minus[alpha]))
        parts[alpha] = (least, None)
    for alpha, points in plus.items():
        parts[alpha] = (min(points), frozenset(points))
    return parts


class PatternCells(Record):
    """The partition of X by membership pattern (a member bitmask, as in
    :meth:`HypothesisClass.meet`) across a family or a class: realized cells only.

    It keeps the members' masks lifted to L, their lcm (a ValueError past
    MAX_MODULUS), and each exception point's residue pattern and own; a set it
    hands out (a `union` of cells, a `meet`) takes one canonicalisation, and
    no cell's L-bit mask is stored.  `parts`, refined by :func:`cell_parts`
    on first read, holds each cell's least element and elements in the order
    of `least` and of the bits of a cell bitmask, ascending least elements;
    `cells` and `realized` go in product order (bit 0 most significant, by `bits`).
    Meets read no refinement, so TABLE_CAP does not bound them.  The rules read
    cell bitmasks: `columns` (the cells a member holds), `held` and `covered`,
    the one cover test, which answers gamma, shared presentations and
    eliminability for a pair's table and a class's alike.
    """

    _compared = ("hypothesis_ids", "cells")

    def __init__(self, hypothesis_ids: tuple[str, ...], supports: tuple[SymbolicSet, ...]):
        self.__dict__.update(hypothesis_ids=hypothesis_ids, supports=supports,
                             full=(1 << len(supports)) - 1)

    @staticmethod
    def of(family) -> PatternCells:
        """The cells of the hypotheses `family`, with no size check."""
        return PatternCells(tuple(h.id for h in family), tuple(h.support for h in family))

    @cached_property
    def width(self) -> int:
        width = lcm(*(s.modulus for s in self.supports))
        if width > MAX_MODULUS:
            raise ValueError(f"lcm of the moduli is {width}, above MAX_MODULUS = {MAX_MODULUS}")
        return width

    @cached_property
    def lifted(self) -> list[int]:
        return [_lift_mask(s.mask, s.modulus, self.width) for s in self.supports]

    @cached_property
    def points(self) -> dict[int, tuple[int, int]]:
        """Each member's exception point mapped to (its residue's pattern, its own)."""
        listed: dict = defaultdict(int)  # point -> the members that list it, then its patterns
        for i, s in enumerate(self.supports):
            for x in s.plus | s.minus:
                listed[x] |= 1 << i
        at: dict[int, int] = {}  # residue -> its pattern
        for x, flips in listed.items():
            r = x % self.width
            if r not in at:
                at[r] = sum((s.mask >> r % s.modulus & 1) << i for i, s in enumerate(self.supports))
            listed[x] = (at[r], at[r] ^ flips)
        return dict(listed)

    def _set(self, width: int, mask: int, near, holds: Callable[[int], bool]) -> SymbolicSet:
        """The set of residues `mask` mod `width` (a divisor of L: those whose
        pattern `holds`), with each point of `near` in iff its own pattern holds."""
        plus, minus = set(), set()
        for x in near:
            base, own = self.points[x]
            if holds(own) != holds(base):
                (plus if holds(own) else minus).add(x)
        return _canonical(width, mask, frozenset(plus), frozenset(minus))

    def meet(self, space: int) -> SymbolicSet:
        """The intersection of the supports in `space` (0: the universe), their
        masks lifted to the lcm of their moduli; a ValueError past the class's."""
        self.width  # the whole class's lcm, checked against MAX_MODULUS
        members = [self.supports[i] for i in _residues_of(space)]
        width = lcm(*(s.modulus for s in members))
        mask, near = (1 << width) - 1, set()
        for s in members:
            if mask:  # once empty, no member can refill it
                mask &= _lift_mask(s.mask, s.modulus, width)
            near.update(s.plus, s.minus)
        return self._set(width, mask, near, lambda alpha: alpha & space == space)

    @cached_property
    def parts(self) -> dict[int, tuple[int, frozenset[int] | None]]:
        return dict(sorted(cell_parts(self).items(), key=lambda item: item[1][0]))

    @cached_property
    def least(self) -> tuple[int, ...]:
        return tuple(least for least, _ in self.parts.values())

    def bits(self, alpha: int) -> tuple[int, ...]:
        """The pattern as a 0/1 tuple in member order: the key of product order."""
        return tuple(alpha >> i & 1 for i in range(len(self.supports)))

    def realized(self) -> list[int]:
        return sorted(self.parts, key=self.bits)

    @cached_property
    def cells(self) -> dict[int, SymbolicSet]:
        return {alpha: self.cell(alpha) for alpha in self.realized()}

    def union(self, cells: int) -> SymbolicSet:
        """The union of `cells`, a cell bitmask, from the lifted masks."""
        holds = {alpha for c, alpha in enumerate(self.parts) if cells >> c & 1}.__contains__
        mask = 0
        for alpha in filter(holds, self.parts):
            cell = (1 << self.width) - 1
            for i, lifted in enumerate(self.lifted):
                cell &= lifted if alpha >> i & 1 else ~lifted
            mask |= cell
        return self._set(self.width, mask, self.points, holds)

    def cell(self, alpha: int) -> SymbolicSet:
        """The cell of a pattern; the empty set when it is not realized."""
        return self.union(sum(1 << c for c, beta in enumerate(self.parts) if beta == alpha))

    def gamma(self) -> SymbolicSet:
        """The common-crossing vertex set: the union of the cells covered on every member."""
        return self.union(self.covered(self.full))

    def partner(self, x: int) -> int:
        """The least element of the cell complementary to x's cell."""
        return self.parts[self.full ^ self.pattern_of(x)][0]

    def pattern_of(self, x: int) -> int:
        return sum(s.contains(x) << i for i, s in enumerate(self.supports))

    @cached_property
    def everywhere(self) -> int:  # every cell, as a cell bitmask
        return (1 << len(self.parts)) - 1

    @cached_property
    def columns(self) -> list[int]:
        """Per member, the cells it holds (a cell bitmask), each cell toggled on
        its smaller side: the members it holds or misses."""
        k = len(self.supports)
        large = sum(1 << c for c, alpha in enumerate(self.parts) if 2 * alpha.bit_count() > k)
        columns = [large] * k
        for c, alpha in enumerate(self.parts):
            for i in _residues_of(self.full ^ alpha if large >> c & 1 else alpha):
                columns[i] ^= 1 << c
        return columns

    def held(self, space: int) -> int:  # the cells some member in `space` holds
        return sum(1 << c for c, alpha in enumerate(self.parts) if alpha & space)

    def covered(self, space: int) -> int:
        """The cells whose pattern a realized cell complements on `space`, a member bitmask."""
        seen = {alpha & space for alpha in self.parts}
        return sum(1 << c for c, alpha in enumerate(self.parts) if (alpha & space) ^ space in seen)

    def least_of(self, cells: int) -> int:  # of the union of `cells`, a nonzero cell bitmask
        return self.least[(cells & -cells).bit_length() - 1]

    @cached_property
    def strictly_below(self) -> list[list[int]]:
        """Per member j, the members whose support is a proper subset of j's, in
        order.  rows[i] ANDs the patterns of the cells i holds (the members above
        i), or, flipped where ones outnumber zeros, of those it misses (below)."""
        full, k = self.full, len(self.supports)
        flip = 2 * sum(alpha.bit_count() for alpha in self.parts) > k * len(self.parts)
        rows = [full] * k
        for alpha in self.parts:
            alpha ^= full if flip else 0
            for i in _residues_of(alpha):
                rows[i] &= alpha
        out: list[list[int]] = [[] for _ in range(k)]
        for i, row in enumerate(rows):
            for j in sorted(_residues_of(row & ~(1 << i))):
                if not rows[j] >> i & 1:
                    out[i if flip else j].append(j if flip else i)
        return out


class HypothesisClass(Record):
    """An ordered, finite, explicitly enumerated class of hypotheses, with the
    descriptor of the family behind it (see :class:`FamilyInfo`).  Its memos
    stay out of equality, hashing and repr."""

    _compared = ("members", "uus_claimed", "family")

    def __init__(self, members: tuple[Hypothesis, ...], uus_claimed: bool = False,
                 family: FamilyInfo = FamilyInfo()):
        ids = [h.id for h in members]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate hypothesis ids: {dupes}")
        if uus_claimed:
            for h in members:
                if h.support.cardinality().is_finite:
                    raise ValueError(
                        f"class claims uniformly unbounded support but "
                        f"{h.id} has finite support"
                    )
        self.__dict__.update(members=members, uus_claimed=uus_claimed, family=family,
                             _meets={}, _patterns={})

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def ids(self) -> list[str]:
        return [h.id for h in self.members]

    def by_id(self, hid: str) -> Hypothesis:
        for h in self.members:
            if h.id == hid:
                return h
        raise KeyError(f"no hypothesis {hid!r} in class {self.ids()}")

    def meet(self, space: int) -> SymbolicSet:
        """The intersection of the supports of the members in `space`, a bitmask
        whose bit i stands for member i (0: the universe): the table's, memoised."""
        if space in self._meets:
            return self._meets[space]
        return _remember(self._meets, space, self.table.meet(space))

    @cached_property
    def table(self) -> PatternCells:  # its parts refined on first read
        return PatternCells.of(self.members)

    def pattern(self, x: int) -> int:
        """The members whose support holds x, as a member bitmask (as in `meet`), memoised."""
        if x in self._patterns:
            return self._patterns[x]
        return _remember(self._patterns, x,
                         sum(h.contains(x) << i for i, h in enumerate(self.members)))

    def global_support_intersection(self) -> SymbolicSet:
        return self.meet((1 << len(self.members)) - 1)

    def describe(self) -> str:
        base = f"{len(self.members)} hypotheses"
        return f"{self.family.describe()} [{base}]" if self.family.kind else base


def _remember(memo: dict, key, value):
    """Store and return `value`; a memo past MEMO_BOUND entries forgets its oldest one."""
    if len(memo) >= MEMO_BOUND:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def check_uus(cls: HypothesisClass) -> bool:
    """True iff every member's support is countably infinite (exact)."""
    return all(h.support.cardinality().is_infinite for h in cls.members)


# ----------------------------------------------------------------------
# witness-class zoo
# ----------------------------------------------------------------------

def disjoint_support_class() -> HypothesisClass:
    """Two hypotheses with disjoint infinite supports (evens and odds)."""
    return HypothesisClass(
        (Hypothesis("hA", SymbolicSet.residue_class(2, {0})),
         Hypothesis("hB", SymbolicSet.residue_class(2, {1}))),
        uus_claimed=True,
        family=FamilyInfo("disjoint"),
    )


def punctured_class(truncation: int) -> HypothesisClass:
    """The limit hypothesis with support A = evens, plus one-point punctures.

    Member m (1-based) removes the m-th element of A, a_m = 2(m-1).  The
    enumeration is (h_inf, h1, ..., hM); the family descriptor builds them
    and records that punctures continue beyond the truncation.
    """
    if truncation < 2:
        raise ValueError("punctured family needs truncation >= 2")
    family = PuncturedFamily("punctured", (truncation,))
    members = [family.limit()]
    members += [family.member(punctured_hole(m)) for m in range(1, truncation + 1)]
    return HypothesisClass(tuple(members), uus_claimed=True, family=family)


def punctured_hole(m: int) -> int:
    """The element removed by the m-th punctured hypothesis (1-based)."""
    if m < 1:
        raise ValueError("puncture index is 1-based")
    return 2 * (m - 1)


def augmented_class(truncation: int) -> HypothesisClass:
    """Base support A = (0 mod 3) and one-point augmentations A + {b_m}.

    b_m is the m-th element of (1 mod 3); the region (2 mod 3) is covered by
    no member, so distinct augmentations never cover X jointly.
    """
    if truncation < 2:
        raise ValueError("augmented family needs truncation >= 2")
    base = SymbolicSet.residue_class(3, {0})
    members = [Hypothesis("h_inf", base)]
    for m in range(1, truncation + 1):
        extra = 3 * (m - 1) + 1
        members.append(Hypothesis(f"h{m}", base.union(SymbolicSet.finite({extra}))))
    return HypothesisClass(
        tuple(members), uus_claimed=True, family=FamilyInfo("augmented", (truncation,))
    )


def co_singleton_class() -> CoSingletonClass:
    """The co-singleton family's descriptor; `explicit_slice` gives a class of it."""
    return CoSingletonClass()


def block_class(budget: int, count: int) -> HypothesisClass:
    """Shared base A = (0 mod 3) plus disjoint blocks of size budget+1.

    The blocks are consecutive chunks of (1 mod 3).  Under at most `budget`
    corrupted text items, no false block can ever be fully observed, which is
    what the block text identifier exploits.
    """
    if budget < 1:
        raise ValueError("block family needs budget >= 1")
    if count < 2:
        raise ValueError("block family needs at least 2 blocks")
    base = SymbolicSet.residue_class(3, {0})
    members = [Hypothesis(f"h{i}", base.union(SymbolicSet.finite(block_elements(budget, i))))
               for i in range(1, count + 1)]
    return HypothesisClass(
        tuple(members), uus_claimed=True, family=FamilyInfo("block", (budget, count))
    )


def block_elements(budget: int, index: int) -> frozenset[int]:
    """The elements of block `index` (1-based) in the block family."""
    pool = SymbolicSet.residue_class(3, {1})
    size = budget + 1
    return frozenset(pool.nth_member(j) for j in range((index - 1) * size, index * size))


SIX_CELL_PATTERNS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def six_cell_class() -> HypothesisClass:
    """Three hypotheses over six residue cells mod 6.

    Residue r carries membership pattern SIX_CELL_PATTERNS[r], so the six
    realized patterns are exactly the nonconstant ones: every pairwise
    support intersection is infinite while the triple intersection is empty.
    """
    members = []
    for i in range(3):
        residues = {r for r, pat in enumerate(SIX_CELL_PATTERNS) if pat[i] == 1}
        members.append(Hypothesis(f"h{i + 1}", SymbolicSet.residue_class(6, residues)))
    return HypothesisClass(tuple(members), uus_claimed=True, family=FamilyInfo("six-cell"))


def pinned_core_class(span: int, core: Iterable[int], anchors: Iterable[int]) -> HypothesisClass:
    """`span` hypotheses pinned to share exactly `core` and avoid `anchors`.

    Member i holds everything outside residue class (i mod span), plus the
    core elements, minus the anchors.  The joint support intersection is
    exactly the core, the jointly-negative region exactly the anchors, and
    (for span >= 3) the only pairs crossing every member run between core and
    anchors: the closure dimension is |core| * |anchors|, attained by the
    complete bipartite edge set between them.  With span 2 the two
    single-membership regions are mutually complementary and hollow sets
    grow without bound, so that case is rejected.
    """
    if span < 3:
        raise ValueError("pinned-core family needs span >= 3")
    core_set = SymbolicSet.finite(core)
    anchor_set = SymbolicSet.finite(anchors)
    if anchor_set.is_empty():
        raise ValueError("pinned-core family needs at least one anchor")
    if not core_set.intersect(anchor_set).is_empty():
        raise ValueError("core and anchors must be disjoint")
    members = []
    for i in range(span):
        support = (
            SymbolicSet.residue_class(span, {i}).complement()
            .union(core_set)
            .difference(anchor_set)
        )
        members.append(Hypothesis(f"h{i + 1}", support))
    core_tag = tuple(sorted(core_set.plus)) + tuple(sorted(anchor_set.plus))
    return HypothesisClass(
        tuple(members), uus_claimed=True,
        family=FamilyInfo("pinned-core", (span,) + core_tag),
    )


def overlapping_cover_class() -> HypothesisClass:
    """A small class where every incomparable pair is an overlapping cover.

    h1 and h2 overlap in {0, 1} and jointly cover X; h3 is a strict superset
    of both.  Text-identifiable with tell-tales, and the overlapping-cover
    condition makes it contrastively identifiable as well.
    """
    h1 = Hypothesis("h1", EVENS.union(SymbolicSet.finite({1})))
    h2 = Hypothesis("h2", ODDS.union(SymbolicSet.finite({0})))
    h3 = Hypothesis("h3", SymbolicSet.cofinite({5}))
    return HypothesisClass((h1, h2, h3), uus_claimed=True, family=FamilyInfo("overlap-cover"))


WITNESS_BUILDERS = {
    "disjoint": (disjoint_support_class, 0),
    "punctured": (punctured_class, 1),
    "augmented": (augmented_class, 1),
    "co-singleton": (CoSingletonClass().explicit_slice, 1),
    "block": (block_class, 2),
    "six-cell": (six_cell_class, 0),
    "overlap-cover": (overlapping_cover_class, 0),
}


def build_witness(spec: str) -> HypothesisClass:
    """Build a witness class from a CLI-style spec `name[:p1,p2]`."""
    name, _, raw = spec.partition(":")
    name = name.strip()
    if name not in WITNESS_BUILDERS:
        raise ValueError(f"unknown witness {name!r}; choose from {sorted(WITNESS_BUILDERS)}")
    builder, arity = WITNESS_BUILDERS[name]
    params = [int(p) for p in raw.split(",") if p.strip()] if raw else []
    if len(params) != arity:
        raise ValueError(f"witness {name!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# ----------------------------------------------------------------------
# class-spec files
# ----------------------------------------------------------------------

class ClassSpecError(ValueError):
    pass


def save_class(cls: HypothesisClass, path: str) -> None:
    doc = {
        "space_modulus": lcm(*(h.support.modulus for h in cls.members)) if cls.members else 1,
        "hypotheses": [{"id": h.id, "support": h.support.literal()} for h in cls.members],
        "uus": cls.uus_claimed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_class(path: str) -> HypothesisClass:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ClassSpecError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError:
            raise ClassSpecError(f"{path}: JSON nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise ClassSpecError(f"{path}: not UTF-8 text: byte {exc.start} is invalid") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("hypotheses"), list):
        raise ClassSpecError(f"{path}: expected an object with a 'hypotheses' list")
    members = []
    for entry in doc["hypotheses"]:
        if not isinstance(entry, dict) or "id" not in entry or "support" not in entry:
            raise ClassSpecError(f"{path}: each hypothesis needs 'id' and 'support'")
        hid, literal = entry["id"], entry["support"]
        if not isinstance(hid, str):
            raise ClassSpecError(f"{path}: hypothesis id must be a string, "
                                 f"got {type(hid).__name__}")
        if not isinstance(literal, str):
            raise ClassSpecError(f"{path}: hypothesis {hid!r}: support must be a string, "
                                 f"got {type(literal).__name__}")
        try:
            support = parse_set_literal(literal)
        except ValueError as exc:
            raise ClassSpecError(f"{path}: hypothesis {hid!r}: {exc}") from exc
        members.append(Hypothesis(hid, support))
    uus = doc.get("uus", False)
    if not isinstance(uus, bool):
        raise ClassSpecError(f"{path}: 'uus' must be true or false, got {type(uus).__name__}")
    try:
        return HypothesisClass(tuple(members), uus_claimed=uus)
    except ValueError as exc:
        raise ClassSpecError(f"{path}: {exc}") from exc
