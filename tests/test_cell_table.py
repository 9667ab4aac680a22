"""The class cell table against the pairwise rules it replaced, its cost and its limits.

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
from crosslimit import classes, crossing, harness
from crosslimit.classes import (CoSingletonClass, Hypothesis, HypothesisClass, augmented_class,
                                load_class)
from crosslimit.cli import main
from crosslimit.crossing import PatternCells, eliminability, pair_cells
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
        h, g = table.columns[i], table.columns[j]
        assert (not h & ~g) == pairwise.difference(cls, i, j).is_empty()  # no B
        assert (i in table.strictly_below[j]) == pairwise.strictly_below(cls, i, j)
        # only a proper pair has its lonely cells in one region (A and B both lonely
        # make supp(h) all of X), so past it the two rules may pick different witnesses
        if cls.members[i].is_proper_nontrivial() and cls.members[j].is_proper_nontrivial():
            cells = pairwise.class_pair_cells(cls, i, j)
            assert eliminability(table, i, j) == pairwise.eliminability(cells)
    assert compute_telltales(cls).entries == pairwise.telltales(cls)
    assert _first_barrier_pair(cls) == pairwise.first_barrier_pair(cls)

    # every meet, finite or infinite, from the lifted masks alone, and every cover; both
    # strategies keep exceptions below 40, so every cell has a point below 40 + L
    horizon = 40 + table.width
    for space, meet in enumerate(pairwise.meets(cls)):
        assert cls.meet(space) == meet
        assert table.covered(space) == pairwise.covered(cls, space, horizon)

    for i, j in itertools.permutations(range(n), 2):  # each pair's own table
        h, g = cls.members[i], cls.members[j]
        if h.support == g.support or not (h.is_proper_nontrivial() and g.is_proper_nontrivial()):
            with pytest.raises(ValueError):
                pair_cells(h, g)
            continue
        cells, reference = pair_cells(h, g), pairwise.class_pair_cells(cls, i, j)
        assert cells.cells == reference and list(cells.cells) == list(reference)
        assert cells.gamma() == pairwise.gamma(reference, 0b11)
        assert eliminability(cells) == pairwise.eliminability(reference)
        for x in range(64):
            try:
                expected = pairwise.partner(reference, 0b11, x)
            except KeyError:
                with pytest.raises(KeyError):
                    cells.partner(x)
            else:
                assert cells.partner(x) == expected

    for size in range(2, min(n, 6) + 1):
        family = cls.members[:size]
        cells, reference = PatternCells.of(family), pairwise.refined_cells(family)
        assert cells.cells == reference and list(cells.cells) == list(reference)
        assert cells.gamma() == pairwise.gamma(reference, (1 << size) - 1)
        for x in range(24):
            assert cells.pattern_of(x) == next(
                alpha for alpha, cell in reference.items() if cell.contains(x))


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
        cls.table.parts
    assert time.perf_counter() - started < 1.0
    assert main(["classify", "--class", str(path)]) == 2
    assert f"TABLE_CAP = {classes.TABLE_CAP}" in capsys.readouterr().err
    # meets read no refinement, so the cap does not bound them
    full = (1 << len(cls.members)) - 1
    assert cls.meet(full) == pairwise.meet(cls, full)
    # 15 members split the residues mod 2^15 by bit; the 985 finite ones after
    # them split no residue, so the nodes per level, not the cells, pass the cap
    bits = [SymbolicSet.residue_class(1 << 15, {r for r in range(1 << 15) if r >> b & 1})
            for b in range(15)]
    supports = bits + [SymbolicSet.finite({n}) for n in range(985)]
    many = HypothesisClass(tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(supports)))
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"class of 1000 members with lcm 32768 passes TABLE_CAP"):
        many.table.parts
    assert time.perf_counter() - started < 1.0


def _wide_class(path) -> None:
    """Seven members whose pairs each lift to at most 1021 * 1019, which the
    pairwise rules handled, while the whole class's lcm is 6 * 1021 * 1019."""
    supports = ["mod 3 { 0 }", "mod 1 { 0 } - { 0 }", "mod 2 { 1 }", "mod 2 { 0 }",
                "mod 1021 { 1 }", "mod 1019 { 2 }", "mod 1 { 0 } - { 1 }"]
    path.write_text(json.dumps({"hypotheses": [{"id": f"h{i}", "support": s}
                                               for i, s in enumerate(supports)]}))


def test_a_class_whose_lcm_passes_max_modulus_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.json"
    _wide_class(path)
    assert main(["classify", "--class", str(path)]) == 2
    assert "lcm of the moduli is 6242394, above MAX_MODULUS" in capsys.readouterr().err


def test_meets_share_the_whole_class_lcm_limit(tmp_path, capsys):
    # a meet checks the whole class's lcm, so even a one-member meet is refused
    path = tmp_path / "wide.json"
    _wide_class(path)
    cls = load_class(str(path))
    with pytest.raises(ValueError, match="lcm of the moduli is 6242394, above MAX_MODULUS"):
        cls.meet(0b1)
    argv = ["generate", "--class", str(path), "--learner", "safe-core-gen", "--target", "h0"]
    assert main(argv) == 2
    assert "lcm of the moduli is 6242394" in capsys.readouterr().err


def test_eliminability_runs_once_per_classify(monkeypatch):
    # every co-singleton pair is eliminable, which the column tests settle alone
    calls = []
    real = crossing.eliminability
    for module in (crossing, harness):  # a caller may hold its own reference to the rule
        monkeypatch.setattr(module, "eliminability",
                            lambda *args: calls.append(args) or real(*args), raising=False)
    verdict = classify(CoSingletonClass().explicit_slice(256))
    assert verdict.ctr_id.mechanism != "barrier-pair" and len(calls) <= 1
