"""Crossing geometry: pattern cells vs the four-region reference, coverage and brute force."""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosslimit.classes as classes
from conftest import random_proper_support
from pairwise import class_pair_cells, difference, refined_cells
from crosslimit.classes import (
    Hypothesis,
    HypothesisClass,
    augmented_class,
    co_singleton_class,
    disjoint_support_class,
    save_class,
    six_cell_class,
)
from crosslimit.cli import main
from crosslimit.crossing import (
    DISJOINT,
    ELIMINABLE,
    NON_COVERING,
    SUPERSET,
    A,
    B,
    C,
    D,
    EliminabilityVerdict,
    PatternCells,
    common_crossing_edges,
    delta_contains,
    eliminability,
    eliminable,
    overlapping_cover,
    pair_cells,
    shared_presentation_family,
    shared_presentation_pair,
)
from crosslimit.harness import classify
from crosslimit.robust import defect
from crosslimit.space import SymbolicSet, intersection_of
from crosslimit.streams import Pair, crosses, paired_stream, validate

EVENS = SymbolicSet.residue_class(2, {0})
ODDS = SymbolicSet.residue_class(2, {1})

FIG_H = Hypothesis("h", SymbolicSet.finite({1, 2}))
FIG_G = Hypothesis("g", SymbolicSet.finite({1, 3}))


# ----------------------------------------------------------------------
# the reference: the four-region model that the pattern cells replaced,
# with its own gamma, eliminability rule and partner rules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Regions:
    """The four-way membership partition of X for a hypothesis pair."""

    both: SymbolicSet        # A: in both supports
    first_only: SymbolicSet  # B: first support only
    second_only: SymbolicSet # C: second support only
    neither: SymbolicSet     # D: outside both

    def as_dict(self) -> dict[str, SymbolicSet]:
        return {"A": self.both, "B": self.first_only, "C": self.second_only, "D": self.neither}

    def gamma(self) -> SymbolicSet:
        """A region contributes its vertices exactly when its partner region is nonempty."""
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

    def eliminability(self) -> EliminabilityVerdict:
        if self.first_only.is_empty():
            return EliminabilityVerdict(False, SUPERSET)
        if self.second_only.is_empty():
            return EliminabilityVerdict(True, ELIMINABLE, witness=self.first_only.min_element())
        if self.both.is_empty():
            return EliminabilityVerdict(False, DISJOINT)
        if self.neither.is_empty():
            return EliminabilityVerdict(True, ELIMINABLE, witness=self.both.min_element())
        return EliminabilityVerdict(False, NON_COVERING)

    def partner(self, x: int) -> int:
        """The least element of the region complementary to x's region."""
        for region, other in ((self.both, self.neither), (self.first_only, self.second_only),
                              (self.second_only, self.first_only), (self.neither, self.both)):
            if region.contains(x):
                return other.min_element()
        raise AssertionError("regions must partition X")


def four_regions(h: Hypothesis, g: Hypothesis) -> Regions:
    a, b = h.support, g.support
    return Regions(a.intersect(b), a.difference(b), b.difference(a), a.union(b).complement())


def reference_cells(r: Regions) -> dict[int, SymbolicSet]:
    """The regions as realized 2-member cells (bit 0 is the first hypothesis)."""
    regions = {D: r.neither, C: r.second_only, B: r.first_only, A: r.both}
    return {alpha: s for alpha, s in regions.items() if not s.is_empty()}


def reference_min_violation_prefix(h: Hypothesis, g: Hypothesis, n: int) -> list[Pair]:
    """The minimum-violation stream's rule: A-positives go to min D, the rest to min C."""
    r = four_regions(h, g)
    defect_set = h.support.difference(r.gamma())
    h_negative = h.support.complement().min_element()
    partner_d, partner_c = r.neither.min_element(), r.second_only.min_element()
    head = tuple(Pair.of(x, h_negative) for x in sorted(defect_set.plus))
    stream = paired_stream(
        h.support.difference(defect_set),
        lambda x: partner_d if r.both.contains(x) else partner_c,
        f"min-violation({h.id}->{g.id})", (h,), head=head,
    )
    return list(stream.prefix(n).items)


def reference_overlapping_cover(h: Hypothesis, g: Hypothesis) -> bool:
    r = four_regions(h, g)
    if r.first_only.is_empty() or r.second_only.is_empty():
        raise ValueError(
            f"overlapping cover is defined for incomparable supports; "
            f"{h.id} and {g.id} are comparable"
        )
    return not r.both.is_empty() and r.neither.is_empty()


def test_delta_contains_star_and_non_crossing():
    h5 = co_singleton_class().member(5)
    for z in (0, 1, 9):
        assert delta_contains(h5, Pair.of(5, z))
    assert not delta_contains(FIG_H, Pair.of(1, 2))
    assert not delta_contains(Hypothesis("evens", EVENS), Pair.of(0, 2))


def test_four_regions_four_point_configuration():
    cells = pair_cells(FIG_H, FIG_G)
    assert cells.cell(A) == SymbolicSet.finite({1})
    assert cells.cell(B) == SymbolicSet.finite({2})
    assert cells.cell(C) == SymbolicSet.finite({3})
    assert cells.cell(D) == SymbolicSet.cofinite({1, 2, 3})
    assert list(cells.cells) == [D, C, B, A]  # product order: bit 0 varies slowest


def test_four_regions_disjoint_pair():
    ha, hb = disjoint_support_class().members
    cells = pair_cells(ha, hb)
    assert cells.cell(A).is_empty() and A not in cells.cells
    assert cells.cell(B) == EVENS
    assert cells.cell(C) == ODDS
    assert cells.cell(D).is_empty() and D not in cells.cells


def test_equal_supports_rejected():
    a = Hypothesis("a", EVENS)
    b = Hypothesis("b", EVENS)
    with pytest.raises(ValueError):
        pair_cells(a, b)
    with pytest.raises(ValueError):
        eliminable(a, b)


def test_gamma_vertex_set_examples():
    # four-point configuration: all regions nonempty, so V covers X
    assert pair_cells(FIG_H, FIG_G).gamma() == SymbolicSet.universe()
    # co-singleton pair: the only common-crossing edge is {s, t}
    fam = co_singleton_class()
    assert pair_cells(fam.member(2), fam.member(7)).gamma() == SymbolicSet.finite({2, 7})
    # disjoint supports: B and C cover each other, A and D are empty
    ha, hb = disjoint_support_class().members
    assert pair_cells(ha, hb).gamma() == SymbolicSet.universe()


def test_common_crossing_edges_four_point():
    edges = common_crossing_edges(FIG_H, FIG_G, range(1, 5))
    assert edges == {Pair.of(1, 4), Pair.of(2, 3)}


def test_eliminable_superset_regime():
    inner = Hypothesis("inner", EVENS.difference(SymbolicSet.finite({0})))
    outer = Hypothesis("outer", EVENS)
    verdict = eliminable(inner, outer)
    assert not verdict.eliminable and verdict.regime == SUPERSET
    # reverse direction: the superset IS eliminable from the subset's data
    back = eliminable(outer, inner)
    assert back.eliminable and back.regime == ELIMINABLE
    assert back.witness == 0


def test_eliminable_disjoint_regime():
    ha, hb = disjoint_support_class().members
    verdict = eliminable(ha, hb)
    assert not verdict.eliminable and verdict.regime == DISJOINT


def test_eliminable_non_covering_regime():
    cls = augmented_class(4)
    verdict = eliminable(cls.by_id("h1"), cls.by_id("h2"))
    assert not verdict.eliminable and verdict.regime == NON_COVERING


def test_eliminable_overlapping_cover_pair():
    h = Hypothesis("h", EVENS.union(SymbolicSet.finite({1})))
    g = Hypothesis("g", ODDS.union(SymbolicSet.finite({0})))
    verdict = eliminable(h, g)
    assert verdict.eliminable and verdict.regime == ELIMINABLE
    assert verdict.witness == 0  # least element of the intersection


def test_overlapping_cover():
    h = Hypothesis("h", EVENS.union(SymbolicSet.finite({1})))
    g = Hypothesis("g", ODDS.union(SymbolicSet.finite({0})))
    assert overlapping_cover(h, g)
    ha, hb = disjoint_support_class().members
    assert not overlapping_cover(ha, hb)
    cls = augmented_class(4)
    assert not overlapping_cover(cls.by_id("h1"), cls.by_id("h2"))
    with pytest.raises(ValueError):
        overlapping_cover(
            Hypothesis("inner", EVENS.difference(SymbolicSet.finite({0}))),
            Hypothesis("outer", EVENS),
        )


def test_shared_pair_disjoint_supports():
    ha, hb = disjoint_support_class().members
    stream = shared_presentation_pair(ha, hb)
    assert stream is not None
    prefix = stream.prefix(30)
    for h in (ha, hb):
        report = validate(prefix, h, horizon=14)
        assert report.clean
        assert report.coverage_deficit.is_empty()


def test_shared_pair_cosingleton_none():
    fam = co_singleton_class()
    assert shared_presentation_pair(fam.member(1), fam.member(4)) is None


def test_shared_pair_four_point_uses_common_edges_only():
    stream = shared_presentation_pair(FIG_H, FIG_G)
    assert stream is not None
    for pair in stream.prefix(9).items:
        assert crosses(FIG_H, pair) and crosses(FIG_G, pair)
    seen = set()
    for pair in stream.prefix(9).items:
        seen.update(pair.elements())
    assert {1, 2, 3} <= seen


def test_pattern_cells_six_cell():
    cells = PatternCells.of(six_cell_class().members)
    # every pattern but none-of-three (0b000) and all-of-three (0b111)
    assert set(cells.realized()) == {0b001, 0b010, 0b011, 0b100, 0b101, 0b110}
    for alpha in cells.realized():
        assert cells.cells[alpha].cardinality().is_infinite
    assert cells.bits(0b001) == (1, 0, 0)  # reports list member 0 first


def test_pattern_cells_pair_matches_regions():
    rng = random.Random(31)
    for _ in range(40):
        h = Hypothesis("h", random_proper_support(rng))
        g = Hypothesis("g", random_proper_support(rng))
        if h.support == g.support:
            continue
        cells = PatternCells.of((h, g))
        # bit 0 is h, bit 1 is g; an empty region has no cell
        assert cells.cells == reference_cells(four_regions(h, g))


def test_pattern_cells_identical_members():
    h = Hypothesis("h", EVENS)
    cells = PatternCells.of((h, h))
    assert set(cells.realized()) == {0b11, 0b00}


def test_shared_family_of_seven_members(tmp_path, capsys):
    # b_i holds the x whose residue mod 128 has bit i set, so every pattern is a cell
    family = [Hypothesis(f"b{i}", SymbolicSet.residue_class(128, {r for r in range(128)
                                                                  if r >> i & 1}))
              for i in range(7)]
    path = tmp_path / "bits.json"
    save_class(HypothesisClass(tuple(family)), str(path))
    ids = ",".join(h.id for h in family)
    assert main(["shared", "--class", str(path), "--family", ids, "--take", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["exists"] is True
    prefix = shared_presentation_family(family).prefix(30)
    assert payload["prefix"] == [str(pair) for pair in prefix.items]
    for h in family:
        assert validate(prefix, h, horizon=30).clean


def test_shared_family_of_seven_cosingletons_is_none(capsys):
    argv = ["shared", "--witness", "co-singleton:8", "--family", "h0,h1,h2,h3,h4,h5,h6"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["exists"] is False


def test_shared_family_needs_two_members():
    with pytest.raises(ValueError, match="at least 2 hypotheses, got 1"):
        shared_presentation_family([Hypothesis("h", EVENS)])


def test_shared_family_six_cell_exists_and_validates():
    family = list(six_cell_class().members)
    stream = shared_presentation_family(family)
    assert stream is not None
    prefix = stream.prefix(40)
    for h in family:
        report = validate(prefix, h, horizon=18)
        assert report.clean
        assert report.coverage_deficit.is_empty()


def test_shared_family_missing_complement_cell():
    h1 = Hypothesis("h1", EVENS)
    h2 = Hypothesis("h2", EVENS.union(SymbolicSet.finite({1})))
    # pattern (0,1) = {1} is realized but its complement (1,0) is empty
    assert shared_presentation_family([h1, h2]) is None


def test_shared_family_finite_union_lists_and_repeats():
    stream = shared_presentation_family([FIG_H, FIG_G])
    assert stream is not None
    prefix = stream.prefix(9)
    # the union {1,2,3} is finite: the full covering list cycles forever
    assert prefix.items[:3] == prefix.items[3:6] == prefix.items[6:9]
    for pair in prefix.items:
        assert crosses(FIG_H, pair) and crosses(FIG_G, pair)
    assert {1, 2, 3} <= prefix.seen()


def test_shared_family_pair_agrees_with_pair_criterion():
    rng = random.Random(32)
    checked = 0
    while checked < 120:
        h = Hypothesis("h", random_proper_support(rng))
        g = Hypothesis("g", random_proper_support(rng))
        if h.support == g.support:
            continue
        checked += 1
        via_pair = shared_presentation_pair(h, g)
        via_family = shared_presentation_family([h, g])
        # the pair criterion: the union of the supports lies inside gamma
        exists = h.support.union(g.support).is_subset(four_regions(h, g).gamma())
        assert (via_pair is not None) == (via_family is not None) == exists, (
            h.support.literal(), g.support.literal())
        if exists:
            assert via_pair.prefix(30) == via_family.prefix(30)
            assert via_pair.provenance == "shared-pair(h,g)"


def _witness_complete_horizon(h: Hypothesis, g: Hypothesis) -> int:
    mins = [
        r.min_element()
        for r in four_regions(h, g).as_dict().values()
        if not r.is_empty()
    ]
    return max(mins) + 1 if mins else 1


def _brute_force_not_eliminable(h: Hypothesis, g: Hypothesis, horizon: int) -> bool:
    """Every h-positive below the horizon has a common-crossing partner."""
    for x in h.support.enumerate_below(horizon):
        if not any(
            y != x and crosses(h, Pair.of(x, y)) and crosses(g, Pair.of(x, y))
            for y in range(horizon)
        ):
            return False
    return True


def test_eliminability_three_verdict_oracle_equivalence():
    rng = random.Random(33)
    checked = 0
    while checked < 250:
        h = Hypothesis("h", random_proper_support(rng))
        g = Hypothesis("g", random_proper_support(rng))
        if h.support == g.support:
            continue
        checked += 1
        region_verdict = eliminable(h, g)
        coverage_verdict = not h.support.is_subset(pair_cells(h, g).gamma())
        horizon = _witness_complete_horizon(h, g)
        brute_verdict = not _brute_force_not_eliminable(h, g, horizon)
        assert region_verdict.eliminable == coverage_verdict == brute_verdict, (
            h.support.literal(), g.support.literal())


def test_barrier_regimes_are_symmetric():
    rng = random.Random(34)
    checked = 0
    while checked < 150:
        h = Hypothesis("h", random_proper_support(rng))
        g = Hypothesis("g", random_proper_support(rng))
        if h.support == g.support:
            continue
        checked += 1
        fwd, back = eliminable(h, g), eliminable(g, h)
        for tag in (DISJOINT, NON_COVERING):
            assert (fwd.regime == tag) == (back.regime == tag)


def test_shared_pair_iff_mutually_non_eliminable():
    rng = random.Random(35)
    checked = 0
    while checked < 150:
        h = Hypothesis("h", random_proper_support(rng))
        g = Hypothesis("g", random_proper_support(rng))
        if h.support == g.support:
            continue
        checked += 1
        shared = shared_presentation_pair(h, g) is not None
        mutual = not eliminable(h, g).eliminable and not eliminable(g, h).eliminable
        assert shared == mutual


def test_shared_pair_streams_cross_both_and_cover():
    rng = random.Random(36)
    built = 0
    while built < 40:
        h = Hypothesis("h", random_proper_support(rng))
        g = Hypothesis("g", random_proper_support(rng))
        if h.support == g.support:
            continue
        stream = shared_presentation_pair(h, g)
        if stream is None:
            continue
        built += 1
        union = h.support.union(g.support)
        n = 25
        prefix = stream.prefix(n)
        for pair in prefix.items:
            assert crosses(h, pair) and crosses(g, pair)
        # the first n pairs cover the first n elements of the union enumeration
        count = min(n, union.cardinality().count or n)
        expected = {union.nth_member(i) for i in range(count)}
        assert expected <= prefix.seen()


def test_family_sharing_downward_closed():
    pools = [
        list(six_cell_class().members),
        list(disjoint_support_class().members),
        list(augmented_class(4).members),
    ]
    for family in pools:
        if shared_presentation_family(family) is None:
            continue
        for size in (2, len(family) - 1):
            if size < 2:
                continue
            for sub in itertools.combinations(family, size):
                assert shared_presentation_family(list(sub)) is not None


# ----------------------------------------------------------------------
# per-class region tables against their definitions
# ----------------------------------------------------------------------

@st.composite
def supports(draw) -> SymbolicSet:
    """Any set, empty and all of X included, with moduli up to 6."""
    m = draw(st.integers(1, 6))
    residues = draw(st.frozensets(st.integers(0, m - 1)))
    plus = draw(st.frozensets(st.integers(0, 19), max_size=3))
    minus = draw(st.frozensets(st.integers(0, 19), max_size=3)) - plus
    return SymbolicSet.build(m, residues, plus, minus)


@st.composite
def families(draw, min_size: int = 1) -> HypothesisClass:
    """1-6 members drawn from a pool of at most 4 supports, so that members
    repeat and many pattern cells are empty."""
    pool = draw(st.lists(supports(), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=6))
    return HypothesisClass(tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(picks)))


@settings(max_examples=200, deadline=None)
@given(families())
def test_refined_pattern_cells_equal_the_product_definition(cls):
    family = cls.members
    product = {
        sum(bit << i for i, bit in enumerate(bits)):
            intersection_of(h.support if bit else h.support.complement()
                            for bit, h in zip(bits, family))
        for bits in itertools.product((0, 1), repeat=len(family))
    }
    expected = {alpha: cell for alpha, cell in product.items() if not cell.is_empty()}
    for cells in (PatternCells.of(family).cells, refined_cells(family)):
        assert list(cells) == list(expected)
        assert cells == expected
    assert PatternCells.of(family).hypothesis_ids == tuple(h.id for h in family)


@settings(max_examples=200, deadline=None)
@given(families(), st.data())
def test_meet_equals_intersection_of(cls, data):
    n = len(cls.members)
    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    # ask in a drawn order, so that a meet is met both before and after its prefixes
    for subset in data.draw(st.permutations(subsets)):
        expected = intersection_of(cls.members[i].support for i in subset)
        assert cls.meet(sum(1 << i for i in subset)) == expected
    assert cls.global_support_intersection() == intersection_of(h.support for h in cls.members)
    for i, j in itertools.product(range(n), repeat=2):  # the cell table's strict inclusions
        assert (i in cls.table.strictly_below[j]) == (
            difference(cls, i, j).is_empty() and not difference(cls, j, i).is_empty())


@settings(max_examples=100, deadline=None)
@given(families(min_size=2))
def test_class_regions_equal_four_regions(cls):
    for i, j in itertools.combinations(range(len(cls.members)), 2):
        h, g = cls.members[i], cls.members[j]
        cells = class_pair_cells(cls, i, j)
        assert cells == PatternCells.of((h, g)).cells
        assert list(cells) == list(PatternCells.of((h, g)).cells)
        assert cells == reference_cells(four_regions(h, g))
        # the class cells in each region, from the columns, in the same order
        a, b = cls.table.columns[i], cls.table.columns[j]
        regions = {alpha: region for alpha, region in (
            (D, cls.table.everywhere & ~(a | b)), (C, b & ~a), (B, a & ~b), (A, a & b)) if region}
        assert list(regions) == list(cells)
        assert [cls.table.least_of(r) for r in regions.values()] == [
            cell.min_element() for cell in cells.values()]


proper_supports = supports().filter(lambda s: not s.is_empty() and not s.complement().is_empty())


@settings(max_examples=300, deadline=None)
@given(proper_supports, proper_supports)
def test_pattern_cell_rules_equal_the_four_region_reference(a, b):
    h, g = Hypothesis("h", a), Hypothesis("g", b)
    if a == b:
        with pytest.raises(ValueError):
            pair_cells(h, g)
        return
    r, cells = four_regions(h, g), pair_cells(h, g)
    assert cells.cells == reference_cells(r)
    assert eliminable(h, g) == eliminability(cells) == r.eliminability()
    assert cells.gamma() == r.gamma()

    report = defect(h, g)
    assert report.defect_set == h.support - r.gamma()
    assert report.kappa == report.defect_set.cardinality()
    if report.kappa.is_finite:
        assert list(report.min_violation_stream.prefix(30).items) == (
            reference_min_violation_prefix(h, g, 30))
    else:
        assert report.min_violation_stream is None

    union = h.support | g.support
    stream = shared_presentation_pair(h, g)
    assert (stream is not None) == union.is_subset(r.gamma())
    if stream is not None:
        expected = paired_stream(union, r.partner, "shared-pair(h,g)", (h, g))
        assert stream.provenance == expected.provenance
        assert stream.prefix(30).items == expected.prefix(30).items

    try:
        expected_cover = reference_overlapping_cover(h, g)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            overlapping_cover(h, g)
    else:
        assert overlapping_cover(h, g) == expected_cover


def test_partner_minima_are_computed_once_per_cells_object(monkeypatch):
    family = list(six_cell_class().members)
    stream = shared_presentation_family(family)
    calls = []
    original = SymbolicSet.min_element
    monkeypatch.setattr(SymbolicSet, "min_element",
                        lambda self: calls.append(self) or original(self))
    prefix = stream.prefix(60)
    # one minimum per paired cell, however many items are drawn
    assert len(calls) <= 6
    for pair in prefix.items:
        assert all(crosses(h, pair) for h in family)


def test_cell_and_lonely_cells():
    h1 = Hypothesis("h1", EVENS)
    h2 = Hypothesis("h2", EVENS.union(SymbolicSet.finite({1})))
    cells = pair_cells(h1, h2)
    assert cells.cell(B).is_empty() and B not in cells.cells
    assert list(cells.parts) == [A, C, D] and cells.covered(cells.full) == 0b101  # A and D
    assert cells.cell(C) == SymbolicSet.finite({1}) and not cells.covered(cells.full) & 0b010
    # gamma leaves out the lonely C cell
    assert cells.gamma() == SymbolicSet.universe() - SymbolicSet.finite({1})
    assert cells.partner(4) == 3 and cells.partner(3) == 0  # A with D, D with A
    with pytest.raises(KeyError):
        cells.partner(1)  # the lonely cell has no partner


def test_class_memos_stay_bounded(monkeypatch):
    # with a bound far below the tables a command fills, memos forget their
    # oldest entries and every answer stays the same
    expected = classify(augmented_class(6)).to_json()
    monkeypatch.setattr(classes, "MEMO_BOUND", 5)
    cls = augmented_class(6)
    n = len(cls.members)
    for subset in (c for r in range(n + 1) for c in itertools.combinations(range(n), r)):
        space = sum(1 << i for i in subset)
        assert cls.meet(space) == intersection_of(cls.members[i].support for i in subset)
        assert len(cls._meets) <= 5
    for x in range(3 * n + 12):
        assert cls.pattern(x) == sum(h.contains(x) << i for i, h in enumerate(cls.members))
        assert len(cls._patterns) <= 5
    assert classify(cls).to_json() == expected
