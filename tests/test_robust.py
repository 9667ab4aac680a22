"""Defect calculus, minimum-violation streams, block identification, demos."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise
from conftest import random_proper_support
from crosslimit.classes import (
    Hypothesis,
    HypothesisClass,
    block_class,
    block_elements,
    co_singleton_class,
    disjoint_support_class,
)
from crosslimit.crossing import eliminable
from crosslimit.learners import AbsenceCountIdentifier, EligibilityIdentifier, compute_telltales, run
from crosslimit.robust import (
    BlockTextIdentifier,
    confusion_demo,
    count_violations,
    defect,
    verify_forced_violations,
)
from crosslimit.space import Cardinality, SymbolicSet
from crosslimit.streams import (
    Pair,
    Prefix,
    TEXT,
    canonical_contrastive,
    canonical_text,
    corrupt,
    crosses,
    sampled_contrastive,
    validate,
)

EVENS = SymbolicSet.residue_class(2, {0})
ODDS = SymbolicSet.residue_class(2, {1})

FINITE_KAPPA_H = Hypothesis("h", EVENS.union(SymbolicSet.finite({1})))
FINITE_KAPPA_G = Hypothesis("g", ODDS.union(SymbolicSet.finite({0})))


def test_defect_cosingleton_infinite():
    fam = co_singleton_class()
    report = defect(fam.member(2), fam.member(5))
    assert report.kappa.is_infinite
    assert report.defect_set == SymbolicSet.cofinite({2, 5})
    assert report.min_violation_stream is None


def test_defect_disjoint_zero():
    ha, hb = disjoint_support_class().members
    report = defect(ha, hb)
    assert report.zero
    stream = report.min_violation_stream
    prefix = stream.prefix(30)
    assert validate(prefix, ha, horizon=16).clean
    assert count_violations(prefix.items, hb) == 0


def test_defect_superset_zero():
    inner = Hypothesis("inner", EVENS.difference(SymbolicSet.finite({0})))
    outer = Hypothesis("outer", EVENS)
    assert defect(inner, outer).zero


def test_defect_overlapping_cover_pair_is_finite_positive():
    report = defect(FINITE_KAPPA_H, FINITE_KAPPA_G)
    assert report.kappa == Cardinality.finite(2)
    assert report.defect_set == SymbolicSet.finite({0, 1})
    stream = report.min_violation_stream
    prefix = stream.prefix(40)
    assert validate(prefix, FINITE_KAPPA_H, horizon=20).clean
    assert count_violations(prefix.items, FINITE_KAPPA_G) == 2


def test_verify_forced_violations():
    trials = [
        canonical_contrastive(FINITE_KAPPA_H),
        sampled_contrastive(FINITE_KAPPA_H, seed=3, horizon=24),
    ]
    assert verify_forced_violations(
        defect(FINITE_KAPPA_H, FINITE_KAPPA_G), FINITE_KAPPA_H, FINITE_KAPPA_G, trials, horizon=12)


def test_verify_rejects_invalid_trial():
    bad = sampled_contrastive(FINITE_KAPPA_G, seed=1, horizon=24)  # valid for g, not h
    with pytest.raises(ValueError):
        verify_forced_violations(
            defect(FINITE_KAPPA_H, FINITE_KAPPA_G), FINITE_KAPPA_H, FINITE_KAPPA_G, [bad], horizon=12)


def test_kappa_zero_iff_not_eliminable_random():
    rng = random.Random(51)
    checked = 0
    while checked < 200:
        h = Hypothesis("h", random_proper_support(rng))
        g = Hypothesis("g", random_proper_support(rng))
        if h.support == g.support:
            continue
        checked += 1
        assert defect(h, g).zero == (not eliminable(h, g).eliminable)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_defect_equals_h_minus_gamma_on_random_pairs(seed, near):
    # the reference is the set formula on the pair's regions, not the lonely cells;
    # a `near` g flips a few points of h, which makes most defect numbers finite
    rng = random.Random(seed)
    h = Hypothesis("h", random_proper_support(rng))
    flips = SymbolicSet.finite({rng.randrange(12) for _ in range(rng.randint(1, 3))})
    g = Hypothesis("g", h.support.difference(flips).union(flips.difference(h.support))
                   if near else random_proper_support(rng))
    if h.support == g.support or not g.is_proper_nontrivial():
        return
    regions = pairwise.class_pair_cells(HypothesisClass((h, g)), 0, 1)
    expected = h.support.difference(pairwise.gamma(regions, 0b11))
    report = defect(h, g)
    assert report.defect_set == expected and report.kappa == expected.cardinality()
    if report.kappa.is_infinite:
        assert report.min_violation_stream is None
        return
    # each defect with h's least negative, then the rest of h ascending (cycled when
    # finite), each with the least element of the region complementary to its own
    negative = h.support.complement().min_element()
    clean = h.support.difference(expected)
    rest = itertools.cycle(sorted(clean.plus)) if clean.is_finite() else clean.members()
    walk = itertools.chain((Pair.of(x, negative) for x in sorted(expected.plus)),
                           (Pair.of(x, pairwise.partner(regions, 0b11, x)) for x in rest))
    assert report.min_violation_stream.prefix(12).items == tuple(itertools.islice(walk, 12))


def test_first_covering_pair_injective():
    # every valid pair holds exactly one h-positive, so it can first-cover
    # at most one defect; first-cover indices of distinct defects differ
    report = defect(FINITE_KAPPA_H, FINITE_KAPPA_G)
    defects = sorted(report.defect_set.plus)
    for stream in (
        canonical_contrastive(FINITE_KAPPA_H),
        sampled_contrastive(FINITE_KAPPA_H, seed=9, horizon=24),
        report.min_violation_stream,
    ):
        items = stream.prefix(60).items
        first_cover = {}
        for x in defects:
            for t, pair in enumerate(items, 1):
                if x in pair:
                    first_cover[x] = t
                    break
        indices = list(first_cover.values())
        assert len(indices) == len(set(indices)) == len(defects)
        for x, t in first_cover.items():
            assert not crosses(FINITE_KAPPA_G, items[t - 1])


def test_enumeration_is_one_corrupted_text_for_every_cosingleton():
    horizon = 12
    fam = co_singleton_class()
    prefix = Prefix(TEXT, tuple(range(horizon)))
    for s in range(horizon):
        report = validate(prefix, fam.member(s), horizon=horizon)
        assert report.xor_violations == (s + 1,)
        assert report.budget_ok(1)
        assert report.coverage_deficit.is_empty()


def test_block_identifier_clean_text():
    cls = block_class(2, 4)
    for target in cls.members:
        record = run(
            BlockTextIdentifier(cls), canonical_text(target),
            steps=40, stability_window=5, target=target,
        )
        assert record.converged, target.id


def test_block_identifier_survives_budget_corruption():
    budget = 2
    cls = block_class(budget, 4)
    target = cls.by_id("h2")
    false_block = sorted(block_elements(budget, 1))
    injections = [(3, false_block[0]), (8, false_block[1])]  # j = 2 < budget+1
    stream = corrupt(canonical_text(target), injections)
    learner = BlockTextIdentifier(cls)
    state = learner.initial()
    for item in stream.prefix(50).items:
        state = learner.advance(state, item)
        assert "h1" not in learner.complete_blocks(state)
    record = run(learner, stream, steps=50, stability_window=5, target=target)
    assert record.converged and record.final_output() == "h2"


def test_block_identifier_budget_cannot_fake_block():
    for budget in (1, 2, 3):
        cls = block_class(budget, 4)
        target = cls.by_id("h3")
        false_block = sorted(block_elements(budget, 2))
        injections = [(2 + 3 * i, x) for i, x in enumerate(false_block[:budget])]
        stream = corrupt(canonical_text(target), injections)
        record = run(
            BlockTextIdentifier(cls), stream,
            steps=60, stability_window=5, target=target,
        )
        assert record.converged and record.final_output() == "h3", budget


def test_block_identifier_needs_block_family():
    with pytest.raises(ValueError):
        BlockTextIdentifier(disjoint_support_class())


def test_confusion_demo_block_pair():
    cls = block_class(2, 3)
    family = [cls.by_id("h1"), cls.by_id("h2")]
    learner = EligibilityIdentifier(cls, compute_telltales(cls))
    demo = confusion_demo(family, learner, steps=40)
    assert len(demo.failed_members) >= 1
    assert set(demo.failed_members) <= {"h1", "h2"}


def test_confusion_demo_disjoint_pair():
    cls = disjoint_support_class()
    learner = EligibilityIdentifier(cls, compute_telltales(cls))
    demo = confusion_demo(list(cls.members), learner, steps=30)
    assert demo.final_output == "hA"
    assert demo.failed_members == ("hB",)


def test_confusion_demo_rejects_unshareable_family():
    fam = co_singleton_class()
    family = [fam.member(1), fam.member(4)]
    with pytest.raises(ValueError):
        confusion_demo(family, AbsenceCountIdentifier(), steps=10)
