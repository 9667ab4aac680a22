"""Value semantics of every record type: equality, hashing, repr, immutability.

Each case builds one instance twice and names the fields that equality and
hashing read (in order), the fields they ignore, whether the type is
immutable, and the exact repr.  Equality holds only between instances of one
class, over the compared fields; the hash is the hash of their tuple.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crosslimit.acceptance import CriterionResult
from crosslimit.classes import (
    CoSingletonClass,
    FamilyInfo,
    Hypothesis,
    HypothesisClass,
    PuncturedFamily,
)
from crosslimit.closure import ClosureResult, DimensionReport, EdgeSet
from crosslimit.crossing import EliminabilityVerdict, PatternCells
from crosslimit.harness import Bounds, Check, HierarchyVerdict, Report, Verdict
from crosslimit.learners import (
    FailureWitness,
    RunRecord,
    TellTaleFamily,
    _AbsenceState,
    _EligState,
    _GenState,
)
from crosslimit.robust import DefectReport, DemoRecord
from crosslimit.space import Cardinality, SymbolicSet
from crosslimit.streams import Pair, Prefix, Stream, ValidityReport

EVENS = SymbolicSet.build(2, {0})
S_REPR = "SymbolicSet(modulus=2, mask=1, plus=frozenset({1}), minus=frozenset({4}))"
EVENS_REPR = "SymbolicSet(modulus=2, mask=1, plus=frozenset(), minus=frozenset())"
ODDS_REPR = "SymbolicSet(modulus=2, mask=2, plus=frozenset(), minus=frozenset())"
H = Hypothesis("h", EVENS)
H_REPR = f"Hypothesis(id='h', support={EVENS_REPR})"


def _walk():
    return iter(())


def _run_record():
    return RunRecord("l", "s", 2, 1, "h", ("h", "h"), ((), ()), (True, True), 1)


RUN_REPR = ("RunRecord(learner='l', stream='s', steps=2, stability_window=1, target='h', "
            "outputs=('h', 'h'), flags=((), ()), step_ok=(True, True), converged_at=1, "
            "trace_rows=())")
BOUNDS_REPR = ("Bounds(horizon=64, family_bound=3, dimension_max_size=8, "
               "dimension_vertex_horizon=24)")
VERDICT_REPR = "Verdict(status='yes', mechanism='uus', witness=None)"

# (make, compared fields, ignored fields, immutable, repr)
CASES = {
    "Cardinality": (lambda: Cardinality(3), ("count",), (), True, "Cardinality(count=3)"),
    "SymbolicSet": (lambda: SymbolicSet.build(2, {0}, plus={1}, minus={4}),
                    ("modulus", "mask", "plus", "minus"), (), True, S_REPR),
    "Hypothesis": (lambda: Hypothesis("h", EVENS), ("id", "support"), (), True, H_REPR),
    "FamilyInfo": (lambda: FamilyInfo("block", (1, 2)), ("kind", "params"), (), True,
                   "FamilyInfo(kind='block', params=(1, 2))"),
    "PuncturedFamily": (lambda: PuncturedFamily("punctured", (4,)), ("kind", "params"), (),
                        True, "PuncturedFamily(kind='punctured', params=(4,))"),
    "CoSingletonClass": (lambda: CoSingletonClass(params=(3,)), ("kind", "params"), (), True,
                         "CoSingletonClass(kind='co-singleton-slice', params=(3,))"),
    "HypothesisClass": (lambda: HypothesisClass((H,), True, FamilyInfo("x")),
                        ("members", "uus_claimed", "family"),
                        ("_meets", "_patterns", "table"), True,
                        f"HypothesisClass(members=({H_REPR},), uus_claimed=True, "
                        f"family=FamilyInfo(kind='x', params=()))"),
    "Prefix": (lambda: Prefix("text", (1, 2)), ("kind", "items"), (), True,
               "Prefix(kind='text', items=(1, 2))"),
    "Stream": (lambda: Stream("text", "p", _walk, (H,)),
               ("kind", "provenance", "walk", "targets"), (), True,
               f"Stream(kind='text', provenance='p', targets=({H_REPR},))"),
    "ValidityReport": (lambda: ValidityReport((2,), EVENS, 6),
                       ("xor_violations", "coverage_deficit", "horizon"), (), True,
                       f"ValidityReport(xor_violations=(2,), coverage_deficit={EVENS_REPR}, "
                       f"horizon=6)"),
    "PatternCells": (lambda: PatternCells.of((H,)), ("hypothesis_ids", "cells"), (), True,
                     f"PatternCells(hypothesis_ids=('h',), cells={{0: {ODDS_REPR}, "
                     f"1: {EVENS_REPR}}})"),
    "EliminabilityVerdict": (lambda: EliminabilityVerdict(True, "eliminable", 4),
                             ("eliminable", "regime", "witness"), (), True,
                             "EliminabilityVerdict(eliminable=True, regime='eliminable', "
                             "witness=4)"),
    "EdgeSet": (lambda: EdgeSet(frozenset({Pair(0, 1)})), ("edges",), (), True,
                "EdgeSet(edges=frozenset({Pair(lo=0, hi=1)}))"),
    "ClosureResult": (lambda: ClosureResult(EVENS), ("value",), (), True,
                      f"ClosureResult(value={EVENS_REPR})"),
    "DimensionReport": (lambda: DimensionReport("exact", 1, None, (8, 24), None, ("n",)),
                        ("outcome", "dimension", "witness", "search_bounds",
                         "infinite_description", "notes"), (), True,
                        "DimensionReport(outcome='exact', dimension=1, witness=None, "
                        "search_bounds=(8, 24), infinite_description=None, notes=('n',))"),
    "TellTaleFamily": (lambda: TellTaleFamily({"h": frozenset({1})}), ("entries",), (), True,
                       "TellTaleFamily(entries={'h': frozenset({1})})"),
    "_EligState": (lambda: _EligState(frozenset({1}), 3, 1), ("seen", "space"), ("ready",),
                   False, "_EligState(seen=frozenset({1}), space=3, ready=1)"),
    "_AbsenceState": (lambda: _AbsenceState((Pair(0, 1),), 0, H), ("pairs", "best"),
                      ("guess",), False,
                      f"_AbsenceState(pairs=(Pair(lo=0, hi=1),), best=0, guess={H_REPR})"),
    "_GenState": (lambda: _GenState(1, (Pair(0, 1),), (), None, (3,), [None], (None, 0), 5),
                  ("count", "edges", "outputs", "inner"),
                  ("_masks", "_closures", "_cursor", "_output"), False,
                  "_GenState(count=1, edges=(Pair(lo=0, hi=1),), outputs=(), inner=None, "
                  "_masks=(3,), _closures=[None], _cursor=(None, 0), _output=5)"),
    "FailureWitness": (lambda: FailureWitness("novelty-violation", 3, None, ""),
                       ("kind", "output", "hypothesis", "extension"), (), True,
                       "FailureWitness(kind='novelty-violation', output=3, hypothesis=None, "
                       "extension='')"),
    "RunRecord": (_run_record, ("learner", "stream", "steps", "stability_window", "target",
                                "outputs", "flags", "step_ok", "converged_at", "trace_rows"),
                  (), True, RUN_REPR),
    "DefectReport": (lambda: DefectReport("h", "g", EVENS, Cardinality(None), None),
                     ("first", "second", "defect_set", "kappa", "min_violation_stream"), (),
                     True, f"DefectReport(first='h', second='g', defect_set={EVENS_REPR}, "
                           f"kappa=Cardinality(count=None), min_violation_stream=None)"),
    "DemoRecord": (lambda: DemoRecord(("h", "g"), "l", "s", ("h",), "h", ("g",), _run_record()),
                   ("family", "learner", "stream", "outputs", "final_output", "failed_members",
                    "record"), (), True,
                   f"DemoRecord(family=('h', 'g'), learner='l', stream='s', outputs=('h',), "
                   f"final_output='h', failed_members=('g',), record={RUN_REPR})"),
    "Bounds": (lambda: Bounds(), ("horizon", "family_bound", "dimension_max_size",
                                  "dimension_vertex_horizon"), (), True, BOUNDS_REPR),
    "Verdict": (lambda: Verdict("yes", "uus"), ("status", "mechanism", "witness"), (), True,
                VERDICT_REPR),
    "HierarchyVerdict": (lambda: HierarchyVerdict("d", *[Verdict("yes", "uus")] * 4, Bounds()),
                         ("class_description", "txt_id", "ctr_id", "ctr_gen", "txt_gen",
                          "bounds"), (), True,
                         f"HierarchyVerdict(class_description='d', txt_id={VERDICT_REPR}, "
                         f"ctr_id={VERDICT_REPR}, ctr_gen={VERDICT_REPR}, "
                         f"txt_gen={VERDICT_REPR}, bounds={BOUNDS_REPR})"),
    "Check": (lambda: Check("c", 1, 1), ("name", "expected", "actual"), (), True,
              "Check(name='c', expected=1, actual=1)"),
    "Report": (lambda: Report("t", (Check("c", 1, 1),), {"k": 1}),
               ("title", "checks", "payload", "elapsed_s"), (), True,
               "Report(title='t', checks=(Check(name='c', expected=1, actual=1),), "
               "payload={'k': 1}, elapsed_s=None)"),
    "CriterionResult": (lambda: CriterionResult(1, "n"), ("number", "name", "ok", "details"),
                        (), False, "CriterionResult(number=1, name='n', ok=True, details=[])"),
}


def _with(record, name, value):
    """A copy of `record` with one field set, past any immutability."""
    out = copy.copy(record)
    object.__setattr__(out, name, value)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    make, compared, ignored, immutable, text = CASES[name]
    record, twin = make(), make()
    assert type(record).__name__ == name
    assert record == twin and not record != twin
    assert repr(record) == text
    for field in compared:
        changed = _with(record, field, object())
        assert record != changed and changed != record
    for field in ignored:
        changed = _with(record, field, object())
        assert record == changed
        if type(record).__hash__ is not None:
            assert hash(changed) == hash(record)
    assert record != object() and record != tuple(getattr(record, f) for f in compared)

    values = tuple(getattr(record, f) for f in compared)
    if name == "CriterionResult":  # mutable and compared: unhashable, as a list is
        assert type(record).__hash__ is None
    else:
        try:
            expected = hash(values)
        except TypeError:  # a field holds a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    field = compared[0]
    if immutable:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    else:
        setattr(record, field, getattr(twin, field))
        assert record == twin


def test_subclass_records_never_equal_their_base():
    base, sub = FamilyInfo("punctured", (4,)), PuncturedFamily("punctured", (4,))
    assert base != sub and sub != base


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command pays the import first, and generated record methods would bring both back
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import crosslimit.cli, crosslimit.acceptance, sys; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=30, check=True)
    assert done.stdout == "[]\n"
