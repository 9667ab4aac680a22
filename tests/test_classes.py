"""Witness-class zoo: construction invariants and class-spec file IO."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crosslimit.classes import (
    ClassSpecError,
    Hypothesis,
    HypothesisClass,
    augmented_class,
    block_class,
    block_elements,
    build_witness,
    check_uus,
    co_singleton_class,
    disjoint_support_class,
    is_proper_nontrivial,
    load_class,
    overlapping_cover_class,
    punctured_class,
    punctured_hole,
    save_class,
    six_cell_class,
)
from crosslimit.space import Cardinality, SymbolicSet

ALL_WITNESSES = [
    disjoint_support_class(),
    punctured_class(6),
    augmented_class(6),
    block_class(2, 3),
    six_cell_class(),
    overlapping_cover_class(),
    co_singleton_class().explicit_slice(5),
]


def test_disjoint_supports_are_disjoint():
    cls = disjoint_support_class()
    a, b = cls.members
    assert a.support.intersect(b.support).is_empty()


def test_punctured_supports():
    cls = punctured_class(3)
    assert cls.ids() == ["h_inf", "h1", "h2", "h3"]
    h2 = cls.by_id("h2")
    assert punctured_hole(2) == 2
    assert not h2.contains(2)
    assert h2.contains(0) and h2.contains(4) and h2.contains(6)
    assert not h2.contains(1)


def test_punctured_differs_from_limit_in_one_point():
    cls = punctured_class(5)
    limit = cls.by_id("h_inf").support
    for m in range(1, 6):
        diff = limit.difference(cls.by_id(f"h{m}").support)
        sym = diff.union(cls.by_id(f"h{m}").support.difference(limit))
        assert sym.cardinality() == Cardinality.finite(1)
        assert diff.contains(punctured_hole(m))


def test_augmented_supports():
    cls = augmented_class(4)
    limit = cls.by_id("h_inf").support
    uncovered = SymbolicSet.residue_class(3, {2})
    for m in range(1, 5):
        member = cls.by_id(f"h{m}").support
        extra = member.difference(limit)
        assert extra.cardinality() == Cardinality.finite(1)
        assert extra.min_element() == 3 * (m - 1) + 1
        assert member.intersect(uncovered).is_empty()


def test_cosingleton_member_and_slice():
    family = co_singleton_class()
    h = family.member(7)
    assert not h.contains(7)
    assert h.contains(8)
    assert is_proper_nontrivial(h)
    cls = family.explicit_slice(3)
    assert cls.ids() == ["h0", "h1", "h2"]


def test_block_supports_intersect_exactly_in_base():
    cls = block_class(1, 3)
    base = SymbolicSet.residue_class(3, {0})
    for i in range(3):
        for j in range(i + 1, 3):
            inter = cls.members[i].support.intersect(cls.members[j].support)
            assert inter == base


def test_block_elements_sizes_and_disjointness():
    seen: set[int] = set()
    for i in range(1, 4):
        block = block_elements(2, i)
        assert len(block) == 3
        assert not (block & seen)
        seen |= block
    cls = block_class(2, 3)
    for i in range(1, 4):
        for x in block_elements(2, i):
            assert cls.by_id(f"h{i}").contains(x)


def test_six_cell_intersections():
    cls = six_cell_class()
    h1, h2, h3 = cls.members
    for a, b in [(h1, h2), (h1, h3), (h2, h3)]:
        assert a.support.intersect(b.support).cardinality().is_infinite
    triple = h1.support.intersect(h2.support).intersect(h3.support)
    assert triple.is_empty()


def test_six_cell_complementary_patterns_nonempty():
    cls = six_cell_class()
    supports = [h.support for h in cls.members]
    for alpha in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        cell = SymbolicSet.universe()
        comp = SymbolicSet.universe()
        for bit, s in zip(alpha, supports):
            cell = cell.intersect(s if bit else s.complement())
            comp = comp.intersect(s.complement() if bit else s)
        assert not cell.is_empty()
        assert not comp.is_empty()


def test_all_witness_members_proper_nontrivial():
    for cls in ALL_WITNESSES:
        for h in cls.members:
            assert is_proper_nontrivial(h), h.id


def test_check_uus():
    assert check_uus(block_class(1, 2))
    assert check_uus(punctured_class(4))
    finite_member = HypothesisClass((Hypothesis("f", SymbolicSet.finite({1, 2})),))
    assert not check_uus(finite_member)


def test_uus_claim_validated():
    with pytest.raises(ValueError):
        HypothesisClass(
            (Hypothesis("f", SymbolicSet.finite({1})),), uus_claimed=True
        )


def test_trivial_hypotheses_detected():
    assert not is_proper_nontrivial(Hypothesis("all", SymbolicSet.universe()))
    assert not is_proper_nontrivial(Hypothesis("none", SymbolicSet.empty()))


def test_duplicate_ids_rejected():
    h = Hypothesis("h", SymbolicSet.cofinite({1}))
    with pytest.raises(ValueError):
        HypothesisClass((h, h))


def test_build_witness_specs():
    assert build_witness("disjoint").ids() == ["hA", "hB"]
    assert len(build_witness("punctured:4")) == 5
    assert len(build_witness("block:2,3")) == 3
    with pytest.raises(ValueError):
        build_witness("punctured")
    with pytest.raises(ValueError):
        build_witness("unheard-of")
    with pytest.raises(ValueError):
        build_witness("punctured:1")
    cosingletons = build_witness("co-singleton:5")
    assert cosingletons.ids() == ["h0", "h1", "h2", "h3", "h4"]
    assert cosingletons.family.member(40).support == SymbolicSet.cofinite({40})
    for spec in ("co-singleton", "co-singleton:1"):
        with pytest.raises(ValueError):
            build_witness(spec)


def test_class_spec_round_trip(tmp_path):
    for cls in ALL_WITNESSES:
        path = tmp_path / "cls.json"
        save_class(cls, str(path))
        loaded = load_class(str(path))
        assert loaded.ids() == cls.ids()
        assert loaded.uus_claimed == cls.uus_claimed
        for a, b in zip(loaded.members, cls.members):
            assert a.support == b.support


def test_load_class_error_reporting(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"hypotheses": [{"id": "x", "support": "mod 2 ( 0 )"}]}')
    with pytest.raises(ClassSpecError) as err:
        load_class(str(bad))
    assert "'x'" in str(err.value)

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    with pytest.raises(ClassSpecError) as err:
        load_class(str(notjson))
    assert "line" in str(err.value)

    malformed = {  # file name -> (contents, what the message names)
        "support-int": ('{"hypotheses": [{"id": "x", "support": 5}]}', "hypothesis 'x'"),
        "support-list": ('{"hypotheses": [{"id": "x", "support": ["mod 2 { 0 }"]}]}',
                         "hypothesis 'x'"),
        "hypotheses-int": ('{"hypotheses": 7}', "'hypotheses' list"),
        "uus-string": ('{"hypotheses": [{"id": "x", "support": "mod 1 { 0 }"}], "uus": "no"}',
                       "'uus'"),
        "nested": ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        "id-null": ('{"hypotheses": [{"id": null, "support": "mod 1 { 0 }"}]}',
                    "id must be a string"),
        "latin-1": ('{"hypotheses": [{"id": "caf\xe9", "support": "mod 1 { 0 }"}]}'
                    .encode("latin-1"), "not UTF-8"),
    }
    for name, (contents, named) in malformed.items():
        path = tmp_path / f"{name}.json"
        if isinstance(contents, bytes):
            path.write_bytes(contents)
        else:
            path.write_text(contents)
        with pytest.raises(ClassSpecError) as err:
            load_class(str(path))
        assert str(err.value).startswith(f"{path}: ") and named in str(err.value), name


_LITERALS = st.sampled_from(["mod 2 { 0 }", "mod 1 { } + { 3 }", "mod 3 { 1 } - { 4 }",
                             "mod 0 { }", "mod 2 { 0 } + { 2 }", "mod {", ""])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | _LITERALS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["hypotheses", "id", "support", "uus"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=12,
)
_SPECS = st.fixed_dictionaries(
    {"hypotheses": st.lists(st.fixed_dictionaries(
        {"id": st.sampled_from(["a", "b"]) | _JSON, "support": _LITERALS | _JSON}), max_size=3)},
    optional={"uus": st.booleans() | _JSON},
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_JSON, _SPECS))
def test_load_class_raises_only_class_spec_errors(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_class(str(path))
    except ClassSpecError:
        pass
