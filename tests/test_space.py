"""Set algebra: pointwise brute-force oracles and canonical-form checks."""

from __future__ import annotations

import itertools
import json
import operator
import os
import random
import subprocess
import sys
import time
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosslimit.space
from conftest import random_symbolic_set
from crosslimit.learners import ConstantGenerator, _GenState, _Log
from crosslimit.space import (
    MAX_MODULUS,
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
    cases = {  # literal -> (line, column) of the offending token
        "mod 2 { 0 } * { 1 }": (1, 13),
        "mod x { 0 }": (1, 5),
        "mod 2 { 0": (1, 10),
        "mod 2 { 5 }": (1, 9),  # a residue at or above the modulus
        "mod 0 { }": (1, 5),
        "mod 2 { 0 }\n + { 3 }\n - { 3 }": (3, 6),  # the later of the overlapping 3s
    }
    for text, position in cases.items():
        with pytest.raises(SetLiteralError) as err:
            parse_set_literal(text)
        assert (err.value.line, err.value.column) == position, text


def test_long_literal_parses_in_one_pass():
    # 40,000 residues, 274 KB: parsing time must stay linear in the text's length
    text = f"mod 80000 {{ {', '.join(map(str, range(0, 80000, 2)))} }}"
    started = time.perf_counter()
    assert parse_set_literal(text) == EVENS
    assert time.perf_counter() - started < 1.0
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal(text + "\n + { 1 } *")
    assert (err.value.line, err.value.column) == (2, 10)


def test_subset_and_disjoint():
    assert EVENS.is_subset(SymbolicSet.universe())
    assert not SymbolicSet.universe().is_subset(EVENS)
    assert EVENS.is_disjoint(ODDS)
    assert not EVENS.is_disjoint(SymbolicSet.finite({2}))


@st.composite
def exceptional_sets(draw, exception_bound: int = 60) -> SymbolicSet:
    m = draw(st.integers(1, 12))
    residues = draw(st.frozensets(st.integers(0, m - 1)))
    plus = draw(st.frozensets(st.integers(0, exception_bound - 1), max_size=8))
    minus = draw(st.frozensets(st.integers(0, exception_bound - 1), max_size=8)) - plus
    return SymbolicSet.build(m, residues, plus, minus)


@settings(max_examples=300, deadline=None)
@given(exceptional_sets())
def test_nth_member_matches_enumeration(s):
    expected = list(itertools.islice(s.members(), 150))
    assert [s.nth_member(i) for i in range(len(expected))] == expected
    assert s.min_element() == (expected[0] if expected else None)
    if s.is_finite():
        with pytest.raises(IndexError):
            s.nth_member(len(expected))
        # a generator's least fresh member reads the same cached sorted parts,
        # resuming from the answer its state carries
        generator = ConstantGenerator(0)
        cursor = (None, 0)
        for k in range(len(expected) + 1):
            state = _GenState(k, _Log(), _Log(), _cursor=cursor)
            fresh = generator._fresh(state, s, set(expected[:k]).__contains__)
            assert fresh == (expected[k] if k < len(expected) else None)
            cursor = state._cursor


@settings(max_examples=300, deadline=None)
@given(exceptional_sets(), st.integers(-3, 250))
def test_members_and_enumerate_below_follow_contains(s, horizon):
    bound = 250  # past every exception, so the walk's tail is covered too
    expected = [x for x in range(bound) if s.contains(x)]
    assert list(itertools.takewhile(lambda x: x < bound, s.members())) == expected
    assert s.enumerate_below(horizon) == [x for x in expected if x < horizon]
    assert s.is_finite() == s.cardinality().is_finite
    if s.is_finite():
        assert list(s.members()) == expected


@settings(max_examples=200, deadline=None)
@given(exceptional_sets())
def test_sorted_parts_cache_is_not_part_of_the_value(s):
    fresh = SymbolicSet(s.modulus, s.residues, s.plus, s.minus)  # the same exception sets
    printed = repr(s), s.literal()
    if s.is_empty():
        with pytest.raises(IndexError):
            s.nth_member(0)
    else:
        assert s.nth_member(0) == s.min_element()
    assert "sorted_parts" in vars(s) and "sorted_parts" not in vars(fresh)
    assert s.sorted_parts == (tuple(sorted(s.residues)), tuple(sorted(s.plus)),
                              tuple(sorted(s.minus)))
    assert s == fresh and hash(s) == hash(fresh)
    assert (repr(s), s.literal()) == printed == (repr(fresh), fresh.literal())


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


# ----------------------------------------------------------------------
# the residue-mask kernel against brute-force membership
# ----------------------------------------------------------------------

def _horizon(*sets: SymbolicSet) -> int:
    """Membership below this bound decides equality: 2·lcm past every exception."""
    exceptions = [x for s in sets for x in s.plus | s.minus]
    return 2 * lcm(*(s.modulus for s in sets)) + max(exceptions, default=0) + 1


def _mask_agrees(s: SymbolicSet) -> bool:
    return s.mask == sum(1 << r for r in s.residues)


BINARY_OPS = [
    (SymbolicSet.union, operator.or_),
    (SymbolicSet.intersect, operator.and_),
    (SymbolicSet.difference, lambda p, q: p and not q),
]


@settings(max_examples=300, deadline=None)
@given(exceptional_sets(40), exceptional_sets(40))
def test_kernel_operations_match_membership(a, b):
    horizon = _horizon(a, b)
    for sym, point in BINARY_OPS:
        out = sym(a, b)
        assert _mask_agrees(out)
        assert all(out.contains(x) == point(a.contains(x), b.contains(x)) for x in range(horizon))
    comp = a.complement()
    assert _mask_agrees(comp)
    assert all(comp.contains(x) != a.contains(x) for x in range(horizon))
    assert _mask_agrees(a) and _mask_agrees(b)


@st.composite
def redundant_forms(draw, s: SymbolicSet) -> tuple[int, set[int], set[int], set[int]]:
    """Another representation of `s`: a multiple of its modulus, the lifted
    residues, and extra exceptions that add or remove nothing."""
    big = s.modulus * draw(st.integers(1, 4))
    residues = {r for r in range(big) if r % s.modulus in s.residues}
    extra = draw(st.frozensets(st.integers(0, 39)))
    plus = set(s.plus) | {x for x in extra if s.contains(x)}
    minus = (set(s.minus) | {x for x in extra if not s.contains(x)}) - plus
    return big, residues, plus, minus


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_is_canonical_from_any_representation(data):
    s = data.draw(exceptional_sets(40))
    big, residues, plus, minus = data.draw(redundant_forms(s))
    rebuilt = SymbolicSet.build(big, residues, plus, minus)
    assert rebuilt == s and rebuilt.modulus == s.modulus and _mask_agrees(rebuilt)
    assert parse_set_literal(s.literal()) == s


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_structural_equality_is_membership_equality(data):
    a = data.draw(exceptional_sets(40))
    kind = data.draw(st.sampled_from(["independent", "rebuilt", "one-flipped"]))
    if kind == "independent":
        b = data.draw(exceptional_sets(40))
    else:
        b = SymbolicSet.build(*data.draw(redundant_forms(a)))
        if kind == "one-flipped":
            x = SymbolicSet.finite({data.draw(st.integers(0, 2 * b.modulus + 40))})
            b = b.difference(x) if x.is_subset(b) else b.union(x)
    same = all(a.contains(x) == b.contains(x) for x in range(_horizon(a, b)))
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b) and a.literal() == b.literal()


def test_modulus_bound_rejects_huge_lcm_quickly():
    # Before the bound this intersection lifted to lcm ≈ 10⁸ and was killed
    # for lack of memory; a subprocess with its own memory cap and a timeout
    # keeps a regression from taking the suite down with it.
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from crosslimit.space import parse_set_literal\n"
        "a, b = parse_set_literal('mod 9973 {0}'), parse_set_literal('mod 9967 {1}')\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    a.intersect(b)\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__, str(exc).startswith('lcm'), time.perf_counter() - start)\n"
    )
    src = os.path.dirname(os.path.dirname(crosslimit.space.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    name, from_lcm_check, seconds = done.stdout.split()
    assert (name, from_lcm_check) == ("ValueError", "True") and float(seconds) < 1.0


def test_modulus_bound_in_parser_and_builders():
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        s = parse_set_literal("mod 1000000 {0}")
        timings.append(time.perf_counter() - start)
    assert min(timings) < 0.05
    assert s.modulus == 1_000_000 and s.min_element() == 0 and s.nth_member(2) == 2_000_000
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal("mod 2000000 {0}")
    assert (err.value.line, err.value.column) == (1, 5)
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        SymbolicSet.build(MAX_MODULUS + 1, {0})
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        SymbolicSet(MAX_MODULUS + 1, frozenset({0}), frozenset(), frozenset())
    big = SymbolicSet.build(MAX_MODULUS, {0})
    with pytest.raises(ValueError, match="^lcm .* MAX_MODULUS"):  # before lifting
        normalize_pair(big, SymbolicSet.residue_class(3, {0}))
    with pytest.raises(ValueError, match="^lcm .* MAX_MODULUS"):
        big.union(SymbolicSet.residue_class(3, {0}))


@pytest.mark.parametrize("template, column", [
    ("mod {n} {{ 0 }}", 5),          # the modulus
    ("mod 3 {{ 1, {n} }}", 12),      # a residue
    ("mod 3 {{ 1 }}\n- {{ 4, {n} }}", 8),  # an exception, on the second line
])
def test_overlong_number_is_a_located_literal_error(template, column, tmp_path, capsys):
    # Python refuses to convert integer strings above 4300 digits
    text = template.format(n="9" * 5000)
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal(text)
    assert (err.value.line, err.value.column) == (text.count("\n") + 1, column)
    assert "5000-digit number" in str(err.value)
    from crosslimit.cli import main

    path = tmp_path / "class.json"
    path.write_text('{"hypotheses": [{"id": "a", "support": %s}]}' % json.dumps(text))
    assert main(["classify", "--class", str(path)]) == 2
    assert "5000-digit number is too long" in capsys.readouterr().err


_SOUP = st.one_of(
    st.sampled_from(["mod", "{", "}", "+", "-", ",", "\n", "mod{", "0x1", "é"]),
    st.integers(0, 12).map(str),
    st.sampled_from([MAX_MODULUS, MAX_MODULUS + 1, 10 ** 30]).map(str),
    st.just("9" * 5000),  # above the interpreter's limit on integer string digits
)


def _parse_or_literal_error(text: str) -> None:
    try:
        parse_set_literal(text)
    except SetLiteralError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_parser_raises_only_literal_errors_on_any_text(text):
    _parse_or_literal_error(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SOUP, max_size=14), st.sampled_from(["", "mod ", "mod 4 "]), st.booleans())
def test_parser_raises_only_literal_errors_on_token_soups(tokens, head, spaced):
    _parse_or_literal_error(head + (" " if spaced else "").join(tokens))


# ----------------------------------------------------------------------
# mask-native values
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(exceptional_sets(40), exceptional_sets(40))
def test_residues_are_derived_from_the_mask(a, b):
    for s in (a, b, a | b, a & b, a - b, ~a):
        assert 0 <= s.mask < 1 << s.modulus
        assert s.residues == {r for r in range(s.modulus) if s.mask >> r & 1}
        assert all(s.contains(x) == (x in s.plus or (x % s.modulus in s.residues
                                                      and x not in s.minus))
                   for x in range(2 * s.modulus + 40))


@settings(max_examples=300, deadline=None)
@given(exceptional_sets(40))
def test_raw_constructor_agrees_with_build(s):
    raw = SymbolicSet(s.modulus, frozenset(s.residues), frozenset(s.plus), frozenset(s.minus))
    built = SymbolicSet.build(s.modulus, s.residues, s.plus, s.minus)
    assert raw == built == s and hash(raw) == hash(built) == hash(s)
    assert raw.literal() == built.literal() == s.literal()
    assert raw.mask == s.mask and raw.residues == s.residues


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_raw_constructor_keeps_a_lifted_form(data):
    s = data.draw(exceptional_sets(40))
    big, residues, plus, minus = data.draw(redundant_forms(s))
    plus = frozenset(x for x in plus if x % big not in residues)
    minus = frozenset(x for x in minus if x % big in residues)
    raw = SymbolicSet(big, frozenset(residues), plus, minus)
    assert raw.modulus == big and raw.residues == residues
    assert (raw == s) == (big == s.modulus)
    assert all(raw.contains(x) == s.contains(x) for x in range(2 * big + 40))
    assert raw.union(SymbolicSet.empty()) == s  # any operation canonicalises


@settings(max_examples=300, deadline=None)
@given(exceptional_sets(40))
def test_complement_links_back_to_its_source(s):
    comp = s.complement()
    assert s.complement() is comp and comp.complement() is s
    assert comp == SymbolicSet.universe().difference(s)
    lifted, _ = normalize_pair(s, SymbolicSet.residue_class(2 * s.modulus, {0}))
    if lifted.modulus != s.modulus:  # a non-canonical value is not its complement's source
        assert lifted.complement() == comp and comp.complement() is s
        assert lifted.complement().complement().modulus == s.modulus


@pytest.mark.parametrize("args, message", [
    ((0, frozenset(), frozenset(), frozenset()), "modulus must be >= 1"),
    ((3, frozenset({3}), frozenset(), frozenset()), "residues must lie in"),
    ((3, frozenset({-1}), frozenset(), frozenset()), "residues must lie in"),
    ((3, frozenset({0}), frozenset({-2}), frozenset()), "naturals"),
    ((3, frozenset({0}), frozenset(), frozenset({-3})), "naturals"),
    ((3, frozenset({0}), frozenset({6}), frozenset()), "plus elements already covered"),
    ((3, frozenset({0}), frozenset(), frozenset({4})), "minus elements not covered"),
    ((70, frozenset({69}), frozenset({139}), frozenset()), "plus elements already covered"),
])
def test_raw_constructor_checks_every_invariant(args, message):
    with pytest.raises(ValueError, match=message):
        SymbolicSet(*args)
