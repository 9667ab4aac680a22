"""The class cell table against the pairwise rules it replaced, its cost and its cap.

`tests/pairwise.py` keeps the pairwise rules as the reference: differences,
a pair's regions from them, and pattern cells refined member by member.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise
from conftest import random_proper_support, small_sets
from crosslimit import classes
from crosslimit.classes import Hypothesis, HypothesisClass, augmented_class, load_class
from crosslimit.cli import main
from crosslimit.crossing import B, PatternCells, eliminability, region_rule
from crosslimit.harness import _first_barrier_pair, classify
from crosslimit.learners import compute_telltales
from crosslimit.space import SymbolicSet


@st.composite
def random_classes(draw) -> HypothesisClass:
    """2-12 members: small sets, or proper supports from a drawn seed."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        supports = draw(st.lists(small_sets(), min_size=n, max_size=n))
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        supports = [random_proper_support(rng) for _ in range(n)]
    return HypothesisClass(tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(supports)))


@settings(max_examples=80, deadline=None)
@given(random_classes())
def test_cell_table_answers_equal_the_pairwise_reference(cls):
    table, n = cls.table, len(cls.members)
    for i, j in itertools.permutations(range(n), 2):
        regions = table.regions(i, j)
        assert (B not in regions) == pairwise.difference(cls, i, j).is_empty()
        assert (i in table.strictly_below[j]) == pairwise.strictly_below(cls, i, j)
        if B in regions and (B ^ 0b11) in regions:  # incomparable
            cells = pairwise.class_pair_cells(cls, i, j)
            assert list(regions) == list(cells.cells)
            assert region_rule(regions, lambda alpha: table.least_of(regions[alpha])) == (
                eliminability(cells))
    assert compute_telltales(cls).entries == pairwise.telltales(cls)
    assert _first_barrier_pair(cls) == pairwise.first_barrier_pair(cls)

    spaces = [sum(1 << i for i in c) for r in range(4) for c in itertools.combinations(range(n), r)]
    for space in spaces + [(1 << n) - 1]:
        meet = pairwise.meet(cls, space)
        assert table.meet(space) == (meet if meet.is_finite() else None)

    for size in range(2, min(n, 6) + 1):
        family = cls.members[:size]
        cells, reference = PatternCells.of(family), pairwise.refined_cells(family)
        assert cells == reference and list(cells.cells) == list(reference.cells)
        assert cells.gamma() == reference.gamma()
        for x in range(24):
            assert cells.pattern_of(x) == next(
                alpha for alpha, cell in reference.cells.items() if cell.contains(x))


def _setops(make, monkeypatch) -> int:
    """How many SymbolicSet operations `classify` makes on the class `make()` builds."""
    cls = make()
    calls = []
    for name in ("union", "intersect", "difference", "complement"):
        real = getattr(SymbolicSet, name)
        monkeypatch.setattr(SymbolicSet, name,
                            lambda *args, real=real: calls.append(1) or real(*args))
    classify(cls)
    monkeypatch.undo()
    return len(calls)


def test_classify_set_operations_grow_linearly(monkeypatch):
    # the pairwise rules made Θ(k²) differences: four times the work at twice the size
    small = _setops(lambda: augmented_class(64), monkeypatch)
    large = _setops(lambda: augmented_class(128), monkeypatch)
    assert large <= 2.5 * small, (small, large)


def _bits_class(path) -> None:
    """Ten members mod 1024, member b holding the residues with bit b set, and
    one mod 1023: 4095 nodes for 2048 cells at lcm 1024 * 1023, just past the table's cap."""
    supports = [f"mod 1024 {{ {', '.join(str(r) for r in range(1024) if r >> b & 1)} }}"
                for b in range(10)] + ["mod 1023 { 0 }"]
    path.write_text(json.dumps({"hypotheses": [{"id": f"h{i}", "support": s}
                                               for i, s in enumerate(supports)]}))


def test_a_class_past_the_table_cap_fails_fast(tmp_path, capsys):
    path = tmp_path / "bits.json"
    _bits_class(path)
    cls = load_class(str(path))
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"class of 11 members with lcm 1047552 passes TABLE_CAP"):
        cls.table
    assert time.perf_counter() - started < 1.0
    assert main(["classify", "--class", str(path)]) == 2
    assert f"TABLE_CAP = {classes.TABLE_CAP}" in capsys.readouterr().err
    # 15 members split the residues mod 2^15 by bit; the 985 finite ones after
    # them split no residue, so the nodes per level, not the cells, pass the cap
    bits = [SymbolicSet.residue_class(1 << 15, {r for r in range(1 << 15) if r >> b & 1})
            for b in range(15)]
    supports = bits + [SymbolicSet.finite({n}) for n in range(985)]
    many = HypothesisClass(tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(supports)))
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"class of 1000 members with lcm 32768 passes TABLE_CAP"):
        many.table
    assert time.perf_counter() - started < 1.0


def test_a_class_whose_lcm_passes_max_modulus_exits_2(tmp_path, capsys):
    # every pair lifts to at most 1021 * 1019, which the pairwise rules
    # classified; the table lifts all seven members to 6 * 1021 * 1019
    supports = ["mod 3 { 0 }", "mod 1 { 0 } - { 0 }", "mod 2 { 1 }", "mod 2 { 0 }",
                "mod 1021 { 1 }", "mod 1019 { 2 }", "mod 1 { 0 }"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"hypotheses": [{"id": f"h{i}", "support": s}
                                               for i, s in enumerate(supports)]}))
    assert main(["classify", "--class", str(path)]) == 2
    assert "lcm of the moduli is 6242394, above MAX_MODULUS" in capsys.readouterr().err
