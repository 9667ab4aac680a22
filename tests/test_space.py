"""Set algebra: pointwise brute-force oracles and canonical-form checks."""

from __future__ import annotations

import itertools
import random
import time
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symbolic_set
from crosslimit.space import (
    Cardinality,
    SetLiteralError,
    SymbolicSet,
    normalize_pair,
    parse_set_literal,
)

EVENS = SymbolicSet.residue_class(2, {0})
ODDS = SymbolicSet.residue_class(2, {1})


def test_contains_residue_class():
    assert EVENS.contains(4)
    assert not EVENS.contains(5)


def test_contains_respects_minus():
    s = SymbolicSet.build(2, {0}, minus={4})
    assert not s.contains(4)
    assert s.contains(6)


def test_contains_respects_plus():
    s = SymbolicSet.build(2, {1}, plus={0})
    assert s.contains(0)
    assert s.contains(3)
    assert not s.contains(2)


def test_normalize_pair_lifts_to_lcm():
    a = SymbolicSet.residue_class(2, {0})
    b = SymbolicSet.residue_class(3, {0})
    la, lb = normalize_pair(a, b)
    assert la.modulus == lb.modulus == 6
    assert la.residues == frozenset({0, 2, 4})
    assert lb.residues == frozenset({0, 3})
    for x in range(60):
        assert la.contains(x) == a.contains(x)
        assert lb.contains(x) == b.contains(x)


def test_normalize_pair_equal_moduli_is_identity():
    a = SymbolicSet.residue_class(2, {0})
    b = SymbolicSet.residue_class(2, {1})
    assert normalize_pair(a, b) == (a, b)


def test_normalize_pair_full_set():
    a = SymbolicSet.universe()
    b = SymbolicSet.residue_class(4, {1})
    la, lb = normalize_pair(a, b)
    assert la.modulus == 4
    assert la.residues == frozenset({0, 1, 2, 3})
    assert lb is b


def test_complement_of_evens_is_odds():
    assert EVENS.complement() == ODDS


def test_intersect_disjoint_residues_is_empty():
    out = EVENS.intersect(ODDS)
    assert out == SymbolicSet.empty()
    assert out.residues == frozenset() and out.plus == frozenset() and out.minus == frozenset()


def test_cosingleton_support_via_difference():
    s = SymbolicSet.universe().difference(SymbolicSet.finite({7}))
    assert s == SymbolicSet.cofinite({7})
    assert not s.contains(7)
    assert s.contains(6)
    assert s.cardinality().is_infinite


def test_cardinality_infinite_with_residues():
    s = SymbolicSet.build(2, {0}, minus={0, 2})
    assert s.cardinality() == Cardinality.infinite()


def test_cardinality_finite_counts_plus():
    s = SymbolicSet.finite({3, 7})
    assert s.cardinality() == Cardinality.finite(2)


def test_min_element_of_odds():
    assert SymbolicSet.universe().difference(EVENS).min_element() == 1


def test_min_element_skips_minus():
    s = SymbolicSet.build(2, {0}, minus={0, 2, 4})
    assert s.min_element() == 6


def test_min_element_empty_is_none():
    assert SymbolicSet.empty().min_element() is None


def test_enumerate_below():
    assert EVENS.enumerate_below(7) == [0, 2, 4, 6]
    assert SymbolicSet.empty().enumerate_below(100) == []
    assert SymbolicSet.cofinite({3}).enumerate_below(5) == [0, 1, 2, 4]


def test_nth_member_finite_and_infinite():
    assert EVENS.nth_member(3) == 6
    assert SymbolicSet.finite({5, 9}).nth_member(1) == 9
    with pytest.raises(IndexError):
        SymbolicSet.finite({5}).nth_member(1)


def test_invariant_violations_rejected():
    with pytest.raises(ValueError):
        SymbolicSet(2, frozenset({0}), plus=frozenset({2}), minus=frozenset())
    with pytest.raises(ValueError):
        SymbolicSet(2, frozenset({0}), plus=frozenset(), minus=frozenset({1}))
    with pytest.raises(ValueError):
        SymbolicSet.build(2, {0}, plus={1}, minus={1})


def test_build_canonicalizes_modulus():
    assert SymbolicSet.build(4, {0, 2}) == EVENS
    assert SymbolicSet.build(6, {0, 1, 2, 3, 4, 5}) == SymbolicSet.universe()
    assert SymbolicSet.build(12, {}) == SymbolicSet.empty()
    # mixed classes cannot be reduced
    s = SymbolicSet.build(4, {0, 1})
    assert s.modulus == 4


def test_build_repairs_redundant_exceptions():
    s = SymbolicSet.build(2, {0}, plus={4}, minus={5})
    assert s == EVENS


def test_algebra_soundness_brute_force():
    rng = random.Random(2001)
    ops = [
        ("union", lambda a, b: a.union(b), lambda p, q: p or q),
        ("intersect", lambda a, b: a.intersect(b), lambda p, q: p and q),
        ("difference", lambda a, b: a.difference(b), lambda p, q: p and not q),
    ]
    for _ in range(300):
        a = random_symbolic_set(rng, max_modulus=12, max_exceptions=8, element_bound=50)
        b = random_symbolic_set(rng, max_modulus=12, max_exceptions=8, element_bound=50)
        horizon = 10 * lcm(a.modulus, b.modulus) + 60
        for name, sym, point in ops:
            out = sym(a, b)
            for x in range(horizon):
                assert out.contains(x) == point(a.contains(x), b.contains(x)), (
                    name, a.literal(), b.literal(), x)
        comp = a.complement()
        for x in range(horizon):
            assert comp.contains(x) == (not a.contains(x))


def test_cardinality_matches_enumeration():
    rng = random.Random(2002)
    for _ in range(300):
        s = random_symbolic_set(rng, max_modulus=12, max_exceptions=8, element_bound=50)
        bound = s.modulus * 60 + 60
        card = s.cardinality()
        listed = s.enumerate_below(bound)
        if card.is_finite:
            assert not s.residues
            assert len(listed) == card.count
        else:
            assert len(listed) > 8  # genuinely keeps growing


def test_double_complement_is_identity():
    rng = random.Random(2003)
    for _ in range(200):
        s = random_symbolic_set(rng)
        assert s.complement().complement() == s


def test_min_element_is_least_member():
    rng = random.Random(2004)
    for _ in range(200):
        s = random_symbolic_set(rng)
        least = s.min_element()
        if least is None:
            assert s.is_empty()
        else:
            assert s.contains(least)
            assert all(not s.contains(x) for x in range(least))


def test_operations_return_canonical_forms():
    rng = random.Random(2005)
    for _ in range(200):
        a = random_symbolic_set(rng)
        b = random_symbolic_set(rng)
        out = a.union(b)
        rebuilt = SymbolicSet.build(out.modulus, out.residues, out.plus, out.minus)
        assert out == rebuilt


def test_literal_round_trip():
    rng = random.Random(2006)
    for _ in range(200):
        s = random_symbolic_set(rng)
        assert parse_set_literal(s.literal()) == s


def test_literal_examples():
    assert parse_set_literal("mod 2 { 0 }") == EVENS
    assert parse_set_literal("mod 1 { } + { 3, 7 }") == SymbolicSet.finite({3, 7})
    assert parse_set_literal("mod 1 { 0 } - { 5 }") == SymbolicSet.cofinite({5})
    assert parse_set_literal("mod 4 {0, 2}") == EVENS  # canonicalized on parse


def test_literal_errors_carry_position():
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal("mod 2 { 0 } * { 1 }")
    assert err.value.line == 1
    assert err.value.column == 13
    with pytest.raises(SetLiteralError):
        parse_set_literal("mod x { 0 }")
    with pytest.raises(SetLiteralError):
        parse_set_literal("mod 2 { 0")


def test_subset_and_disjoint():
    assert EVENS.is_subset(SymbolicSet.universe())
    assert not SymbolicSet.universe().is_subset(EVENS)
    assert EVENS.is_disjoint(ODDS)
    assert not EVENS.is_disjoint(SymbolicSet.finite({2}))


@st.composite
def exceptional_sets(draw) -> SymbolicSet:
    m = draw(st.integers(1, 12))
    residues = draw(st.frozensets(st.integers(0, m - 1)))
    plus = draw(st.frozensets(st.integers(0, 59), max_size=8))
    minus = draw(st.frozensets(st.integers(0, 59), max_size=8)) - plus
    return SymbolicSet.build(m, residues, plus, minus)


@settings(max_examples=300, deadline=None)
@given(exceptional_sets())
def test_nth_member_matches_enumeration(s):
    expected = list(itertools.islice(s.members(), 150))
    assert [s.nth_member(i) for i in range(len(expected))] == expected
    if s.is_finite():
        with pytest.raises(IndexError):
            s.nth_member(len(expected))


@given(exceptional_sets(), st.integers(max_value=-1))
def test_nth_member_rejects_negative_index(s, index):
    with pytest.raises(IndexError):
        s.nth_member(index)


def test_nth_member_far_index_is_fast():
    s = SymbolicSet.build(12, {1, 5, 7}, plus={2, 40}, minus={1, 55})
    before, at = s.nth_member(10**6 - 1), s.nth_member(10**6)
    assert s.contains(before) and s.contains(at)
    assert not any(s.contains(x) for x in range(before + 1, at))
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        s.nth_member(10**6)
        timings.append(time.perf_counter() - start)
    assert min(timings) < 1e-3
