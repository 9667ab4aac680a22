"""Classification verdicts, worked-example reproductions, report formats."""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_proper_support, small_sets
from crosslimit import closure as closure_module
from crosslimit.classes import (
    Hypothesis,
    HypothesisClass,
    augmented_class,
    block_class,
    co_singleton_class,
    disjoint_support_class,
    load_class,
    overlapping_cover_class,
    pinned_core_class,
    punctured_class,
    six_cell_class,
)
from crosslimit.crossing import shared_presentation_family
from crosslimit.harness import (
    NO,
    UNKNOWN,
    YES,
    Bounds,
    Check,
    HierarchyVerdict,
    Report,
    Verdict,
    _check_diamond,
    _finite_intersection_obstruction,
    classify,
    emit_report,
    reproduce,
)
from crosslimit.cli import main
from crosslimit.learners import compute_telltales, telltales_sound
from crosslimit.space import SymbolicSet, intersection_of
from crosslimit.streams import validate


def test_classify_disjoint_corner():
    verdict = classify(disjoint_support_class())
    assert verdict.ctr_id.status == NO
    assert verdict.ctr_id.witness["regime"] == "disjoint"
    assert verdict.txt_id.status == YES
    assert verdict.ctr_gen.status == NO
    assert verdict.ctr_gen.mechanism == "finite-intersection-obstruction"
    assert verdict.ctr_gen.witness["family"] == ["hA", "hB"]
    assert verdict.txt_gen.status == YES


def test_classify_punctured_corner():
    verdict = classify(punctured_class(8))
    assert verdict.txt_id.status == NO
    assert verdict.txt_id.mechanism == "no-finite-telltale"
    assert verdict.ctr_gen.status == YES
    assert verdict.ctr_gen.mechanism == "eventual-core"
    assert verdict.ctr_id.status == NO
    assert verdict.txt_gen.status == YES


def test_classify_augmented_corner():
    verdict = classify(augmented_class(8))
    assert verdict.ctr_gen.status == YES
    assert verdict.ctr_gen.mechanism == "safe-core"
    assert verdict.ctr_id.status == NO
    assert verdict.ctr_id.witness["regime"] == "non-covering"
    assert verdict.txt_id.status == YES


def test_classify_overlap_cover_corner():
    verdict = classify(overlapping_cover_class())
    assert verdict.ctr_id.status == YES
    assert verdict.txt_id.status == YES
    assert verdict.ctr_gen.status == YES
    assert verdict.txt_gen.status == YES


def test_classify_six_cell_obstruction_is_triple():
    verdict = classify(six_cell_class())
    assert verdict.ctr_gen.status == NO
    assert verdict.ctr_gen.witness["family"] == ["h1", "h2", "h3"]
    assert verdict.ctr_id.status == NO


def test_classify_block_class():
    verdict = classify(block_class(2, 3))
    assert verdict.txt_id.status == YES
    assert verdict.ctr_id.status == NO
    assert verdict.ctr_gen.status == YES  # safe core A
    assert verdict.ctr_gen.mechanism == "safe-core"


def test_classify_pinned_core_uses_dimension():
    verdict = classify(pinned_core_class(3, (0,), (1,)))
    assert verdict.ctr_gen.status == YES
    assert verdict.ctr_gen.mechanism == "finite-dimension"
    assert verdict.ctr_gen.witness["dimension"] == 1


def test_classify_never_claims_both_sides():
    # every zoo member classifies without tripping the consistency guards
    for cls in (
        disjoint_support_class(), punctured_class(6), augmented_class(6),
        block_class(1, 3), six_cell_class(), overlapping_cover_class(),
        co_singleton_class().explicit_slice(4), pinned_core_class(3, (0, 3), (1,)),
    ):
        verdict = classify(cls)
        assert verdict.corner()  # diamond check ran inside classify


def test_diamond_check_rejects_each_violated_lower_inclusion():
    def verdict(ctr_id, txt_id, ctr_gen):
        return HierarchyVerdict("hand-built", Verdict(txt_id), Verdict(ctr_id),
                                Verdict(ctr_gen), Verdict(YES), Bounds())

    _check_diamond(verdict(YES, YES, YES))
    _check_diamond(verdict(NO, NO, NO))
    for txt_id, ctr_gen in ((NO, YES), (UNKNOWN, YES), (YES, NO), (YES, UNKNOWN)):
        with pytest.raises(AssertionError):
            _check_diamond(verdict(YES, txt_id, ctr_gen))


def test_classify_telltales_need_no_horizon():
    # the tell-tale witnesses 4, 7 and 10 lie past the horizon of 2
    verdict = classify(augmented_class(4), Bounds(horizon=2))
    assert verdict.txt_id == classify(augmented_class(4)).txt_id
    assert verdict.txt_id.status == YES and verdict.txt_id.mechanism == "telltales"
    assert verdict.txt_id.witness["h4"] == [10]
    assert verdict.ctr_id.status == NO  # a barrier pair exists regardless


def test_reproduce_four_point():
    report = reproduce("fig1")
    assert report.ok, report.diff_lines()


def test_reproduce_absence_trace():
    report = reproduce("ex61")
    assert report.ok, report.diff_lines()


def test_reproduce_three_cell_family():
    report = reproduce("exD2")
    assert report.ok, report.diff_lines()


def test_reproduce_diamond():
    report = reproduce("diamond")
    assert report.ok, report.diff_lines()


def test_reproduce_rejects_unknown_id():
    with pytest.raises(ValueError):
        reproduce("fig9")


def test_reproduce_is_deterministic():
    first = reproduce("exD2").to_json()
    second = reproduce("exD2").to_json()
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second


def test_no_verdicts_replay_through_their_witnesses():
    # a barrier witness re-verifies through eliminable; an obstruction
    # witness re-verifies through the shared-presentation builder
    from crosslimit.crossing import eliminable

    for cls in (disjoint_support_class(), augmented_class(6), six_cell_class()):
        verdict = classify(cls)
        if verdict.ctr_id.status == NO and verdict.ctr_id.mechanism == "barrier-pair":
            first, second = verdict.ctr_id.witness["pair"]
            replay = eliminable(cls.by_id(first), cls.by_id(second))
            assert not replay.eliminable
            assert replay.regime == verdict.ctr_id.witness["regime"]
        if verdict.ctr_gen.status == NO:
            ids = verdict.ctr_gen.witness["family"]
            family = [cls.by_id(i) for i in ids]
            stream = shared_presentation_family(family)
            assert stream is not None
            intersection = SymbolicSet.universe()
            for h in family:
                intersection = intersection.intersect(h.support)
            assert intersection.cardinality().is_finite


def test_random_obstruction_witnesses_replay():
    # every finite-intersection obstruction names a family whose shared
    # stream rebuilds under the reported provenance and is valid for all
    replayed = 0
    for seed in range(60):
        rng = random.Random(seed)
        cls = HypothesisClass(tuple(Hypothesis(f"h{i}", random_proper_support(rng))
                                    for i in range(rng.randint(2, 6))))
        verdict = classify(cls).ctr_gen
        if verdict.mechanism != "finite-intersection-obstruction":
            continue
        replayed += 1
        family = [cls.by_id(i) for i in verdict.witness["family"]]
        stream = shared_presentation_family(family)
        assert stream.provenance == verdict.witness["shared_stream"]
        meet = intersection_of(h.support for h in family)
        assert meet.is_finite()
        assert verdict.witness["intersection"] == meet.literal()
        prefix = stream.prefix(40)
        for h in family:
            assert validate(prefix, h, horizon=40).clean, (seed, h.id)
    assert replayed >= 10


def test_emit_report_formats():
    report = Report(
        "demo",
        (Check("one", 1, 1), Check("two", 2, 3)),
        payload={"trace": [{"step": 1, "output": 4}, {"step": 2, "output": 5}]},
    )
    blob = emit_report(report, "json")
    parsed = json.loads(blob)
    assert parsed["schema"] == "crosslimit-report/1"
    assert parsed["ok"] is False
    text = emit_report(report, "text-summary")
    assert "FAIL" in text and "demo" in text
    csv_text = emit_report(report, "csv-trace")
    assert csv_text.splitlines()[0] == "output,step"
    with pytest.raises(ValueError):
        emit_report(report, "yaml")
    with pytest.raises(ValueError):
        emit_report(Report("no-trace", ()), "csv-trace")


def test_classify_large_punctured_witness_is_fast(capsys):
    # the meet of every family of up to three members would be cubic here
    started = time.perf_counter()
    code = main(["classify", "--witness", "punctured:300"])
    elapsed = time.perf_counter() - started
    verdict = json.loads(capsys.readouterr().out)
    assert code == 0 and verdict["ctr_gen"]["mechanism"] == "eventual-core"
    assert elapsed < 5.0


def test_classify_spends_no_search_on_a_dimension_it_cannot_use(monkeypatch):
    # ctr_gen reads only an exact dimension; past six members the bounded
    # search could only report at-least, so classify gives it no budget
    cls = load_class(str(Path(__file__).parent / "golden" / "random-seven.json"))
    calls = []
    real = closure_module.closure_of
    monkeypatch.setattr(closure_module, "closure_of",
                        lambda *args: calls.append(args[1]) or real(*args))
    verdict = classify(cls)
    assert verdict.ctr_gen == Verdict(UNKNOWN, mechanism="no-characterization")
    assert 0 < len(calls) <= 2  # the root closure and the first candidate edge


def _obstruction_by_enumeration(cls: HypothesisClass, bounds: Bounds) -> Verdict | None:
    """The first family of up to `family_bound` members, smallest first, with a
    finite intersection and a shared presentation."""
    for size in range(2, bounds.family_bound + 1):
        for family in itertools.combinations(cls.members, size):
            meet = intersection_of(h.support for h in family)
            stream = shared_presentation_family(list(family)) if meet.is_finite() else None
            if stream is not None:
                return Verdict(NO, mechanism="finite-intersection-obstruction", witness={
                    "family": [h.id for h in family],
                    "intersection": meet.literal(),
                    "shared_stream": stream.provenance,
                })
    return None


proper_supports = small_sets().filter(lambda s: not s.is_empty() and not s.complement().is_empty())
explicit_classes = st.lists(proper_supports, min_size=2, max_size=6).map(
    lambda supports: HypothesisClass(
        tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(supports))))
family_classes = st.integers(2, 12).flatmap(
    lambda t: st.sampled_from([punctured_class(t), augmented_class(t)]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(explicit_classes, family_classes), st.integers(2, 3))
def test_obstruction_search_is_its_literal_enumeration(cls, family_bound):
    bounds = Bounds(family_bound=family_bound)
    assert _finite_intersection_obstruction(cls, bounds) == _obstruction_by_enumeration(cls, bounds)


@settings(max_examples=100, deadline=None)
@given(st.lists(proper_supports, min_size=1, max_size=4), st.data())
def test_equal_supports_are_no_identification_and_trip_no_check(supports, data):
    twin = data.draw(st.sampled_from(supports))
    at = data.draw(st.integers(0, len(supports)))
    supports = supports[:at] + [twin] + supports[at:]
    cls = HypothesisClass(tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(supports)))
    verdict = classify(cls)  # the diamond check runs inside
    first = next((f"h{i}", f"h{j}") for i, j in itertools.combinations(range(len(supports)), 2)
                 if supports[i] == supports[j])
    assert verdict.txt_id == Verdict(NO, mechanism="equal-supports", witness={"pair": list(first)})
    assert verdict.ctr_id.status == NO


@st.composite
def far_sets(draw) -> SymbolicSet:
    """A proper set mod 1 to 4 whose exceptions reach past the default horizon of 64."""
    m = draw(st.integers(1, 4))
    residues = draw(st.frozensets(st.integers(0, m - 1)))
    plus = draw(st.frozensets(st.integers(0, 200), max_size=3))
    minus = draw(st.frozensets(st.integers(0, 200), max_size=3)) - plus
    return SymbolicSet.build(m, residues, plus, minus)


far_classes = st.lists(
    far_sets().filter(lambda s: not s.is_empty() and not s.complement().is_empty()),
    min_size=2, max_size=5, unique=True,
).map(lambda supports: HypothesisClass(
    tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(supports))))


@settings(max_examples=60, deadline=None)
@given(far_classes)
def test_telltales_are_sound_and_need_no_horizon(cls):
    assert telltales_sound(cls, compute_telltales(cls))
    near, far = classify(cls, Bounds(horizon=64)), classify(cls, Bounds(horizon=10**6))
    assert near.txt_id.status == YES  # a finite explicit class has finite tell-tales
    for part in ("txt_id", "ctr_id", "ctr_gen", "txt_gen"):
        assert getattr(near, part) == getattr(far, part)
