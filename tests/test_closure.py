"""Closure operators: version spaces, hollowness oracle, dimension search."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_proper_support
from crosslimit import classes as classes_module
from crosslimit import closure as closure_module
from crosslimit.classes import (
    Hypothesis,
    HypothesisClass,
    augmented_class,
    co_singleton_class,
    disjoint_support_class,
    overlapping_cover_class,
    pinned_core_class,
    punctured_class,
    punctured_hole,
    six_cell_class,
)
from crosslimit.closure import (
    AT_LEAST,
    EXACT,
    INFINITE,
    ClosureResult,
    EdgeSet,
    _bounded_search_dimension,
    closure_dimension,
    contrastive_closure,
    crossing_mask,
    edge_version_space,
    is_hollow,
    positive_closure,
    safe_set,
)
from crosslimit.learners import (
    ClosureGenerator,
    EligibilityIdentifier,
    SafeCoreGenerator,
    compute_telltales,
    run,
)
from crosslimit.space import SymbolicSet, intersection_of
from crosslimit.streams import Pair, canonical_contrastive, crosses, sampled_contrastive

EVENS = SymbolicSet.residue_class(2, {0})


def ladder_edges(n: int) -> EdgeSet:
    """The n-rung puncture ladder: each hole paired with the least odd."""
    return EdgeSet.of(Pair.of(punctured_hole(i), 1) for i in range(1, n + 1))


def test_positive_closure_punctured_truncation():
    cls = punctured_class(4)
    out = positive_closure(cls, [punctured_hole(1)])
    expected = EVENS.difference(SymbolicSet.finite({2, 4, 6}))
    assert out.value == expected


def test_positive_closure_empty_and_bottom():
    cls = punctured_class(3)
    assert positive_closure(cls, []).value == EVENS.difference(SymbolicSet.finite({0, 2, 4}))
    assert positive_closure(cls, [1]).is_bottom  # odd: in no support


def test_edge_version_space_cosingleton_star():
    cls = co_singleton_class().explicit_slice(5)
    vs = edge_version_space(cls, EdgeSet.of([Pair.of(2, 4)]))
    assert [h.id for h in vs] == ["h2", "h4"]
    assert edge_version_space(cls, EdgeSet.of([])) == list(cls.members)


def test_edge_version_space_punctured_excludes_touched_hole():
    cls = punctured_class(4)
    vs = edge_version_space(cls, EdgeSet.of([Pair.of(0, 1)]))
    assert [h.id for h in vs] == ["h_inf", "h2", "h3", "h4"]


def test_contrastive_closure_punctured_follows_infinite_family():
    cls = punctured_class(10)
    for n in (1, 3, 10):
        out = contrastive_closure(cls, ladder_edges(n))
        assert out.value == SymbolicSet.finite(punctured_hole(i) for i in range(1, n + 1))


TRUNCATION = 12


@st.composite
def low_edge_sets(draw) -> EdgeSet:
    """0-5 edges whose vertices are holes of the first TRUNCATION punctures or odds between."""
    vertex = st.integers(0, 2 * TRUNCATION - 2)
    pairs = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]).map(lambda p: Pair.of(*p))
    return EdgeSet.of(draw(st.lists(pairs, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(low_edge_sets())
def test_punctured_closed_form_matches_truncation_below_its_holes(edges):
    # Below 2M the truncation's version space decides the same elements as
    # the infinite family, since every edge-incident puncture is a member.
    cls = punctured_class(TRUNCATION)
    closed = contrastive_closure(cls, edges)
    brute = support_intersection(edge_version_space(cls, edges))
    assert closed.is_bottom == brute.is_bottom
    if not closed.is_bottom:
        horizon = 2 * TRUNCATION
        assert closed.value.enumerate_below(horizon) == brute.value.enumerate_below(horizon)


def per_hole_closure(family, edges) -> SymbolicSet | None:
    """The punctured closure member by member: the limit and the puncture at
    each touched hole, each tested against every edge."""
    edges = tuple(edges)

    def fits(h: Hypothesis) -> bool:
        return all(crosses(h, pair) for pair in edges)

    holes = {x for pair in edges for x in pair if family.base.contains(x)}
    passing = {x for x in holes if fits(family.member(x))}
    if fits(family.limit()):  # so does every untouched puncture: only failing holes survive
        return SymbolicSet.finite(holes - passing)
    return family.base.difference(SymbolicSet.finite(passing)) if passing else None


@st.composite
def punctured_edge_sets(draw) -> list[Pair]:
    """Up to 8 edges on vertices below 40, half of them drawn even-even at one
    hole, so that the puncture there passes about as often as it fails."""
    vertex, hole = st.integers(0, 39), draw(st.integers(0, 19)) * 2
    pairs = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]).map(lambda p: Pair.of(*p))
    at_hole = st.integers(0, 19).filter(lambda i: 2 * i != hole).map(lambda i: Pair.of(hole, 2 * i))
    return draw(st.lists(st.one_of(at_hole, pairs), max_size=8, unique=True))


@settings(max_examples=300, deadline=None)
@given(punctured_edge_sets())
def test_punctured_closure_equals_the_per_hole_rule(edges):
    cls = punctured_class(3)  # the closure reads the infinite family, not the truncation
    assert cls.family.closure(cls, 0, iter(edges)) == per_hole_closure(cls.family, edges)


VERTICES = 14


@st.composite
def explicit_classes(draw) -> HypothesisClass:
    """1-8 members with supports of modulus up to 6 and exceptions below VERTICES."""
    def support(m: int) -> SymbolicSet:
        residues = draw(st.frozensets(st.integers(0, m - 1)))
        plus = draw(st.frozensets(st.integers(0, VERTICES - 1), max_size=3))
        minus = draw(st.frozensets(st.integers(0, VERTICES - 1), max_size=3)) - plus
        return SymbolicSet.build(m, residues, plus, minus)

    moduli = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    return HypothesisClass(tuple(Hypothesis(f"h{i}", support(m)) for i, m in enumerate(moduli)))


PAIRS = st.tuples(st.integers(0, VERTICES - 1), st.integers(0, VERTICES - 1)).filter(
    lambda p: p[0] != p[1]).map(lambda p: Pair.of(*p))


def support_intersection(members) -> ClosureResult:
    """The intersection of the members' supports, one by one; bottom when there are none."""
    members = list(members)
    if not members:
        return ClosureResult.bottom()
    return ClosureResult(intersection_of(h.support for h in members))


def reference_closure(cls: HypothesisClass, edges) -> ClosureResult:
    """The literal definition: the members every edge crosses, one by one."""
    return support_intersection(h for h in cls.members if all(crosses(h, p) for p in edges))


@settings(max_examples=200, deadline=None)
@given(explicit_classes(), st.lists(PAIRS, max_size=6))
def test_mask_closure_equals_the_literal_definition(cls, pairs):
    for n in range(len(pairs) + 1):  # the empty edge set first
        edges = EdgeSet.of(pairs[:n])
        assert contrastive_closure(cls, edges) == reference_closure(cls, pairs[:n])


@settings(max_examples=100, deadline=None)
@given(explicit_classes(), st.lists(PAIRS, max_size=10))
def test_generator_closures_equal_the_literal_definition(cls, pairs):
    for generator in (ClosureGenerator(cls, 0), SafeCoreGenerator(cls)):
        state = generator.initial()
        assert generator._closure(state) == reference_closure(cls, [])
        for pair in pairs:  # repeated pairs included
            state = generator.advance(state, pair)
            assert generator._closure(state) == reference_closure(cls, state.edges)


def reference_crossing_mask(cls: HypothesisClass, pair: Pair) -> int:
    return sum(1 << i for i, h in enumerate(cls.members) if crosses(h, pair))


@pytest.mark.parametrize("memo_bound", [classes_module.MEMO_BOUND, 3])
@settings(max_examples=150, deadline=None)
@given(explicit_classes(), st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 63)).filter(lambda p: p[0] != p[1]),
    min_size=1, max_size=12))
def test_crossing_mask_equals_the_per_member_definition(memo_bound, cls, ends):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classes_module, "MEMO_BOUND", memo_bound)  # 3: patterns get evicted
        for pair in [Pair.of(*p) for p in ends] * 2:  # the second pass reads the memo
            assert crossing_mask(cls, pair) == reference_crossing_mask(cls, pair)
            assert len(cls._patterns) <= memo_bound
        survivors = edge_version_space(cls, EdgeSet.of(Pair.of(*p) for p in ends))
        assert survivors == [h for h in cls.members
                             if all(crosses(h, Pair.of(*p)) for p in ends)]


def test_eligibility_run_computes_each_pattern_once(monkeypatch):
    cls = overlapping_cover_class()
    learner = EligibilityIdentifier(cls, compute_telltales(cls))
    stream = canonical_contrastive(cls.members[2])  # every item pairs x with z* = 5
    tested = Counter()
    real = Hypothesis.contains

    def counting(h, x):
        tested[x] += 1
        return real(h, x)

    monkeypatch.setattr(Hypothesis, "contains", counting)
    record = run(learner, stream, steps=400)
    assert record.converged and tested[5] > 0
    # a pattern tests every member once; a second computation would test them again
    assert max(tested.values()) <= len(cls.members)


def test_contrastive_closure_bottom():
    cls = disjoint_support_class()
    # {0,2} crosses neither member
    out = contrastive_closure(cls, EdgeSet.of([Pair.of(0, 2)]))
    assert out.is_bottom


def test_safe_set_contains_augmented_core():
    cls = augmented_class(5)
    base = cls.by_id("h_inf").support
    for target in cls.members:
        prefix = sampled_contrastive(target, seed=7, horizon=30).prefix(20)
        out = safe_set(cls, prefix)
        assert not out.is_bottom
        assert base.is_subset(out.value)
        assert out.value.is_subset(target.support)


def test_is_hollow_punctured_ladder():
    cls = punctured_class(10)
    for n in range(1, 11):
        assert is_hollow(cls, ladder_edges(n))


def test_is_hollow_false_on_infinite_common_core():
    cls = augmented_class(4)
    edge = EdgeSet.of([Pair.of(0, 2)])  # 0 in A, 2 in the uncovered region
    assert not is_hollow(cls, edge)


def test_is_hollow_false_on_empty_version_space():
    cls = disjoint_support_class()
    assert not is_hollow(cls, EdgeSet.of([Pair.of(0, 2)]))


def _hollow_oracle(cls: HypothesisClass, edge_set: EdgeSet) -> bool:
    """Pointwise hollowness: enumerate instead of symbolic set operations.

    The horizon shows 2|E|+1 elements of every nonempty membership cell, so
    an escape from V(E) below it exists iff one exists at all.
    """
    vs = [h for h in cls.members if all(crosses(h, p) for p in edge_set.edges)]
    if not vs:
        return False
    depth = 2 * len(edge_set) + 1
    horizon = max(edge_set.vertices(), default=0) + 1
    for alpha in itertools.product((0, 1), repeat=len(cls.members)):
        found, x = 0, 0
        while found < depth and x < 500:
            if all(h.contains(x) == bool(b) for h, b in zip(cls.members, alpha)):
                found += 1
                horizon = max(horizon, x + 1)
            x += 1
    verts = edge_set.vertices()
    for x in range(horizon):
        if all(h.contains(x) for h in vs) and x not in verts:
            return False
    return True


def test_is_hollow_matches_pointwise_oracle():
    rng = random.Random(41)
    for _ in range(80):
        members = tuple(
            Hypothesis(f"h{i}", random_proper_support(rng, max_modulus=4, element_bound=12))
            for i in range(rng.randint(2, 3))
        )
        if len({h.support for h in members}) != len(members):
            continue
        cls = HypothesisClass(members)
        n_edges = rng.randint(0, 3)
        pairs = set()
        while len(pairs) < n_edges:
            x, y = rng.randrange(12), rng.randrange(12)
            if x != y:
                pairs.add(Pair.of(x, y))
        edge_set = EdgeSet.of(pairs)
        assert is_hollow(cls, edge_set) == _hollow_oracle(cls, edge_set), (
            [h.support.literal() for h in members], str(edge_set))


def test_monotonicity_of_version_space_and_closure():
    rng = random.Random(42)
    for _ in range(60):
        members = tuple(
            Hypothesis(f"h{i}", random_proper_support(rng, max_modulus=4, element_bound=12))
            for i in range(3)
        )
        if len({h.support for h in members}) != 3:
            continue
        cls = HypothesisClass(members)
        pairs = []
        while len(pairs) < 4:
            x, y = rng.randrange(12), rng.randrange(12)
            if x != y and Pair.of(x, y) not in pairs:
                pairs.append(Pair.of(x, y))
        small, big = EdgeSet.of(pairs[:2]), EdgeSet.of(pairs)
        vs_small = {h.id for h in edge_version_space(cls, small)}
        vs_big = {h.id for h in edge_version_space(cls, big)}
        assert vs_big <= vs_small
        c_small, c_big = contrastive_closure(cls, small), contrastive_closure(cls, big)
        if not c_small.is_bottom and not c_big.is_bottom:
            assert c_small.value.is_subset(c_big.value)


def test_target_stays_in_version_space_and_safe_set_is_sound():
    cls = augmented_class(4)
    for target in cls.members:
        stream = canonical_contrastive(target)
        for n in (1, 5, 12):
            prefix = stream.prefix(n)
            edge_set = EdgeSet.from_prefix(prefix)
            assert target.id in {h.id for h in edge_version_space(cls, edge_set)}
            out = safe_set(cls, prefix)
            assert out.value.is_subset(target.support)


def test_dimension_punctured_reports_lower_bound():
    cls = punctured_class(10)
    # the truncation's own meet is infinite, but the infinite family's is
    # empty, so no exact-0 shortcut applies
    assert cls.global_support_intersection().cardinality().is_infinite
    assert cls.family.intersection(cls).is_empty()
    report = closure_dimension(cls, max_size=10, vertex_horizon=24)
    assert report.outcome == AT_LEAST
    assert report.dimension == 10
    assert report.witness is not None and len(report.witness) == 10
    assert is_hollow(cls, report.witness)


def test_dimension_cosingleton_slice_exact_zero():
    for count in (2, 4):
        report = closure_dimension(co_singleton_class().explicit_slice(count))
        assert report.outcome == EXACT
        assert report.dimension == 0
        assert report.witness is None  # no hollow edge sets at all


@pytest.mark.parametrize("cls", [augmented_class(8), co_singleton_class().explicit_slice(8)],
                         ids=["augmented-8", "co-singleton-slice-8"])
def test_dimension_infinite_family_intersection_is_exact_zero_without_a_search(cls, monkeypatch):
    # past the cell analysis's six members, an infinite global intersection
    # settles the dimension: every closure holds it, so nothing is hollow
    monkeypatch.setattr(closure_module, "_bounded_search_dimension", None)
    report = closure_dimension(cls)
    assert (report.outcome, report.dimension, report.witness) == (EXACT, 0, None)


def test_dimension_single_infinite_hypothesis():
    cls = HypothesisClass((Hypothesis("h", EVENS),))
    report = closure_dimension(cls)
    assert report.outcome == EXACT and report.dimension == 0 and report.witness is None


def test_dimension_disjoint_and_six_cell_infinite():
    for cls in (disjoint_support_class(), six_cell_class()):
        report = closure_dimension(cls)
        assert report.outcome == INFINITE
        assert report.witness is not None
        assert is_hollow(cls, report.witness)
        assert report.infinite_description


def test_dimension_augmented_exact_zero():
    report = closure_dimension(augmented_class(4))
    assert report.outcome == EXACT and report.dimension == 0


def test_dimension_pinned_core_formula():
    cases = [
        (3, (0,), (1,)),          # dimension 1
        (3, (0, 3), (1,)),        # dimension 2
        (3, (0,), (1, 4, 7)),     # dimension 3
        (4, (0, 1), (2, 3)),      # dimension 4
        (3, (), (1, 2)),          # dimension 0, empty set hollow
    ]
    for span, core, anchors in cases:
        cls = pinned_core_class(span, core, anchors)
        report = closure_dimension(cls)
        assert report.outcome == EXACT
        assert report.dimension == len(core) * len(anchors), (span, core, anchors)
        if report.dimension >= 1:
            assert len(report.witness) == report.dimension
            assert is_hollow(cls, report.witness)
        else:
            assert report.witness is not None and len(report.witness) == 0
            assert is_hollow(cls, report.witness)


def test_dimension_exact_agrees_with_bounded_search():
    cases = [
        pinned_core_class(3, (0,), (1,)),
        pinned_core_class(3, (0, 3), (1,)),
        co_singleton_class().explicit_slice(3),
    ]
    for cls in cases:
        exact = closure_dimension(cls)
        searched = _bounded_search_dimension(cls, max_size=4, vertex_horizon=10, budget=120_000)
        assert searched.outcome == AT_LEAST
        assert searched.dimension == exact.dimension
        if searched.dimension and searched.witness is not None:
            assert is_hollow(cls, searched.witness)


def test_dimension_cell_analysis_cross_validates_with_search():
    # two independent procedures: the exact cell analysis and the guided
    # bounded search must agree on random small classes
    rng = random.Random(99)
    checked = 0
    while checked < 12:
        members = tuple(
            Hypothesis(f"h{i}", random_proper_support(rng, max_modulus=4, element_bound=12))
            for i in range(rng.randint(2, 3))
        )
        if len({h.support for h in members}) != len(members):
            continue
        checked += 1
        cls = HypothesisClass(members)
        cell = closure_dimension(cls)
        search = _bounded_search_dimension(cls, max_size=4, vertex_horizon=12, budget=25_000)
        if search.witness is not None:
            assert is_hollow(cls, search.witness)
        if cell.outcome == EXACT:
            assert search.dimension == min(cell.dimension, 4), (
                [h.support.literal() for h in members], str(cell), str(search))
        else:
            assert cell.outcome == INFINITE
            assert search.dimension == 4, (
                [h.support.literal() for h in members], str(cell), str(search))


def test_bounded_search_evaluates_each_version_space_once(monkeypatch):
    cls = pinned_core_class(7, (0, 3), (1,))
    evaluated = []
    real = classes_module.PatternCells.meet

    def counting(table, space):
        evaluated.append(space)
        return real(table, space)

    # the meet memo's miss path: one call per version space not yet memoised
    monkeypatch.setattr(classes_module.PatternCells, "meet", counting)
    report = _bounded_search_dimension(cls, max_size=4, vertex_horizon=10, budget=3000)
    assert "search budget 3000 exhausted" in report.notes  # 3000 trials were evaluated
    assert 0 < len(evaluated) == len(cls._meets) <= 2 ** len(cls.members)
    assert report.dimension == 2 and is_hollow(cls, report.witness)


def test_bounded_search_draws_candidates_only_as_it_reaches_them(monkeypatch):
    cls = punctured_class(4)
    drawn = []
    real = closure_module.crossing_mask

    def counting(cls, pair):
        drawn.append(pair)
        return real(cls, pair)

    # about 5e9 pairs lie below the horizon; the 50-trial budget reaches a few of them
    monkeypatch.setattr(closure_module, "crossing_mask", counting)
    report = closure_dimension(cls, 2, 100000, 50)
    assert "search budget 50 exhausted" in report.notes
    assert report.outcome == AT_LEAST and report.dimension == 1
    assert is_hollow(cls, report.witness)
    assert len(drawn) < 1000


def test_dimension_witnesses_reverify():
    for cls in (punctured_class(6), pinned_core_class(3, (0, 3), (1,))):
        report = closure_dimension(cls, max_size=6)
        if report.witness is not None:
            assert is_hollow(cls, report.witness)


def test_edge_set_api():
    e = EdgeSet.of([Pair.of(0, 1), Pair.of(2, 5)])
    assert len(e) == 2
    assert e.vertices() == frozenset({0, 1, 2, 5})
    assert e.vertex_set() == SymbolicSet.finite({0, 1, 2, 5})
    assert ClosureResult.bottom().is_bottom
