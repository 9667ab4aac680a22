"""Hierarchy classification with machine-checkable witnesses, reproductions.

The four verdicts per class:

* text identification: exact tell-tales over the member tuple (least
  elements of strict differences, so no horizon bounds them), or, for a
  family with a limit past its member list, a certified failure: every
  finite candidate tell-tale of the limit below the horizon sits inside the
  support of the family's member that leaves out an element beyond it, a
  set-algebra test that enumerates nothing;
* contrastive identification: text identification plus every incomparable
  pair an overlapping cover, with the first barrier pair as the witness
  otherwise;
* contrastive generation: three sufficient mechanisms (infinite safe core,
  eventual core, exactly-known finite closure dimension), one obstruction
  (a small subfamily sharing a presentation, read off the class's cell
  table, while intersecting finitely), and an honest Unknown when neither
  side fires: no complete decision procedure is claimed;
* text generation: uniformly unbounded supports.

Every yes/no carries a witness that replays through the corresponding
module operation, and emitted verdicts are post-checked against the two
lower diamond inclusions (contrastive identification below both contrastive
generation and text identification).  The upper ones, both below text
generation, need no check: the text-generation verdict is never no.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time

from .classes import (
    CoSingletonClass,
    Hypothesis,
    HypothesisClass,
    augmented_class,
    check_uus,
    disjoint_support_class,
    overlapping_cover_class,
    punctured_class,
    require_proper,
    six_cell_class,
)
from .closure import EXACT, closure_dimension
from .crossing import (
    A,
    B,
    C,
    common_crossing_edges,
    eliminability,
    pair_cells,
    shared_presentation_family,
)
from .learners import AbsenceCountIdentifier, compute_telltales, telltales_sound
from .space import Record, SymbolicSet, intersection_of
from .streams import Pair, corrupt, canonical_contrastive, validate

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class Bounds(Record):
    """Search budgets for classification; recorded in every verdict."""

    _compared = ("horizon", "family_bound", "dimension_max_size", "dimension_vertex_horizon")

    def __init__(self, horizon: int = 64, family_bound: int = 3, dimension_max_size: int = 8,
                 dimension_vertex_horizon: int = 24):
        self.__dict__.update(horizon=horizon, family_bound=family_bound,
                             dimension_max_size=dimension_max_size,
                             dimension_vertex_horizon=dimension_vertex_horizon)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._compared}


class Verdict(Record):
    _compared = ("status", "mechanism", "witness")

    def __init__(self, status: str, mechanism: str | None = None, witness: dict | None = None):
        self.__dict__.update(status=status, mechanism=mechanism, witness=witness)

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.mechanism:
            out["mechanism"] = self.mechanism
        if self.witness:
            out["witness"] = self.witness
        return out


class HierarchyVerdict(Record):
    _compared = ("class_description", "txt_id", "ctr_id", "ctr_gen", "txt_gen", "bounds")

    def __init__(self, class_description: str, txt_id: Verdict, ctr_id: Verdict,
                 ctr_gen: Verdict, txt_gen: Verdict, bounds: Bounds):
        self.__dict__.update(class_description=class_description, txt_id=txt_id,
                             ctr_id=ctr_id, ctr_gen=ctr_gen, txt_gen=txt_gen, bounds=bounds)

    def corner(self) -> tuple[str, str, str, str]:
        return (self.ctr_id.status, self.txt_id.status, self.ctr_gen.status, self.txt_gen.status)

    def to_json(self) -> dict:
        return {
            "class": self.class_description,
            "txt_id": self.txt_id.to_json(),
            "ctr_id": self.ctr_id.to_json(),
            "ctr_gen": self.ctr_gen.to_json(),
            "txt_gen": self.txt_gen.to_json(),
            "bounds": self.bounds.to_json(),
        }


def _txt_id_verdict(cls: HypothesisClass, bounds: Bounds) -> Verdict:
    limit = cls.family.limit()
    if limit is not None:
        swallow = cls.family.member(limit.support.nth_member(bounds.horizon))
        uncovered = limit.support.difference(swallow.support).min_element()
        if uncovered is not None and uncovered < bounds.horizon:
            raise AssertionError("member beyond the horizon must keep all candidates")
        return Verdict(
            NO,
            mechanism="no-finite-telltale",
            witness={
                "hypothesis": limit.id,
                "rule": (
                    "any finite candidate tell-tale below the horizon is contained "
                    "in the support of the puncture at an element beyond it"
                ),
                "containing_support": swallow.support.literal(),
                "horizon": bounds.horizon,
            },
        )
    holders: dict[SymbolicSet, list[str]] = {}  # canonical sets: == is set equality
    for h in cls.members:  # in order of each support's first holder, so the first pair
        holders.setdefault(h.support, []).append(h.id)
    twins = next((ids[:2] for ids in holders.values() if len(ids) > 1), None)
    if twins is not None:  # every presentation of one is one of the other
        return Verdict(NO, mechanism="equal-supports", witness={"pair": twins})
    family = compute_telltales(cls)
    if not telltales_sound(cls, family):
        raise AssertionError("computed tell-tales failed their own soundness check")
    return Verdict(
        YES,
        mechanism="telltales",
        witness={hid: sorted(family.of(hid)) for hid in cls.ids()},
    )


def _ctr_id_verdict(cls: HypothesisClass, txt_id: Verdict) -> Verdict:
    barrier = _first_barrier_pair(cls)
    if barrier is not None:
        first, second, regime = barrier
        return Verdict(
            NO,
            mechanism="barrier-pair",
            witness={"pair": [first, second], "regime": regime},
        )
    if txt_id.status == NO:
        return Verdict(NO, mechanism="txt-id-failure", witness=txt_id.witness)
    return Verdict(YES, mechanism="overlapping-covers", witness=txt_id.witness)


def _first_barrier_pair(cls: HypothesisClass) -> tuple[str, str, str] | None:
    """The first incomparable, non-eliminable pair in member order, by column tests:
    such a pair is eliminable iff a cell holds both members and none misses both."""
    table = cls.table
    columns, everywhere = table.columns, table.everywhere
    for i, a in enumerate(columns):
        for j, b in enumerate(columns[i + 1:], i + 1):
            both = a & b
            if both != a and both != b and not (both and a | b == everywhere):
                return (cls.members[i].id, cls.members[j].id, eliminability(table, i, j).regime)
    return None


def _ctr_gen_verdict(cls: HypothesisClass, ctr_id: Verdict, bounds: Bounds) -> Verdict:
    obstruction = _finite_intersection_obstruction(cls, bounds)
    positive = _ctr_gen_positive(cls, ctr_id, bounds)
    if obstruction is not None and positive is not None:
        raise AssertionError(
            f"both a generation mechanism and an obstruction fired: "
            f"{positive.mechanism} vs {obstruction.witness}"
        )
    if positive is not None:
        return positive
    if obstruction is not None:
        return obstruction
    return Verdict(UNKNOWN, mechanism="no-characterization")


def _ctr_gen_positive(cls: HypothesisClass, ctr_id: Verdict, bounds: Bounds) -> Verdict | None:
    family = cls.family
    core = family.intersection(cls)
    if core.cardinality().is_infinite:
        return Verdict(YES, mechanism="safe-core", witness={"core": core.literal()})
    core = family.eventual_core(cls)
    if core is not None:
        for h in cls.members:
            if not core.difference(h.support).cardinality().is_finite:
                raise AssertionError("a member misses infinitely much of the eventual core")
        return Verdict(
            YES,
            mechanism="eventual-core",
            witness={"core": core.literal(), "rule": "ascending enumeration of the base"},
        )
    # only an exact dimension counts here, and the bounded search reports at-least: no budget
    report = closure_dimension(cls, bounds.dimension_max_size, bounds.dimension_vertex_horizon,
                               search_budget=0)
    if report.outcome == EXACT:
        return Verdict(
            YES,
            mechanism="finite-dimension",
            witness={
                "dimension": report.dimension,
                "witness_edges": str(report.witness) if report.witness else None,
            },
        )
    if ctr_id.status == YES:
        return Verdict(YES, mechanism="identify-then-generate")
    return None


def _finite_intersection_obstruction(cls: HypothesisClass, bounds: Bounds) -> Verdict | None:
    members, table = cls.members, cls.table
    if not cls.global_support_intersection().is_finite():
        return None  # every family's meet contains this infinite one, so none is finite
    for size in range(2, min(bounds.family_bound, len(members)) + 1):
        for combo in itertools.combinations(range(len(members)), size):
            space = sum(1 << i for i in combo)
            if table.held(space) & ~table.covered(space) or not cls.meet(space).is_finite():
                continue  # some cell the family holds is lonely on it, or the meet is infinite
            stream = shared_presentation_family([members[i] for i in combo])  # for its witness
            if stream is None:
                raise AssertionError("the class table and the family's own cells disagree")
            return Verdict(NO, mechanism="finite-intersection-obstruction", witness={
                "family": [members[i].id for i in combo],
                "intersection": cls.meet(space).literal(),
                "shared_stream": stream.provenance})
    return None


def _txt_gen_verdict(cls: HypothesisClass) -> Verdict:
    if check_uus(cls):
        return Verdict(YES, mechanism="uus")
    return Verdict(UNKNOWN, mechanism="uus-fails")


def classify(cls: HypothesisClass, bounds: Bounds | None = None) -> HierarchyVerdict:
    """Four-way classification with witnesses, degraded only to Unknown.

    Bound insufficiency never produces a wrong answer: verdicts the search
    cannot certify come back Unknown with a note.
    """
    require_proper(*cls.members)  # no contrastive data exists for an empty or all-of-X target
    bounds = bounds or Bounds()
    txt_id = _txt_id_verdict(cls, bounds)
    ctr_id = _ctr_id_verdict(cls, txt_id)
    ctr_gen = _ctr_gen_verdict(cls, ctr_id, bounds)
    txt_gen = _txt_gen_verdict(cls)
    verdict = HierarchyVerdict(cls.describe(), txt_id, ctr_id, ctr_gen, txt_gen, bounds)
    _check_diamond(verdict)
    return verdict


def _check_diamond(v: HierarchyVerdict) -> None:
    """Check the two lower diamond inclusions: contrastive identification
    implies text identification and contrastive generation.  The upper two
    (both below text generation) cannot fail, since the text-generation
    verdict is yes or unknown, never no."""
    if v.ctr_id.status == YES:
        if v.txt_id.status != YES:
            raise AssertionError("contrastive identification implies text identification")
        if v.ctr_gen.status != YES:
            raise AssertionError("contrastive identification implies contrastive generation")


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

class Check(Record):
    _compared = ("name", "expected", "actual")

    def __init__(self, name: str, expected: object, actual: object):
        self.__dict__.update(name=name, expected=expected, actual=actual)

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
        }


class Report(Record):
    """A reproducible experiment: named checks against frozen expectations.

    The regenerated content is deterministic; elapsed_s is the one field
    that varies between runs.
    """

    _compared = ("title", "checks", "payload", "elapsed_s")

    def __init__(self, title: str, checks: tuple[Check, ...], payload: dict | None = None,
                 elapsed_s: float | None = None):  # no payload: a fresh empty dict
        self.__dict__.update(title=title, checks=checks,
                             payload={} if payload is None else payload, elapsed_s=elapsed_s)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": "crosslimit-report/1",
            "title": self.title,
            "ok": self.ok,
            "checks": [check.to_json() for check in self.checks],
            "payload": self.payload,
            "elapsed_s": self.elapsed_s,
        }

    def diff_lines(self) -> list[str]:
        return [
            f"{check.name}: expected {check.expected!r}, got {check.actual!r}"
            for check in self.checks
            if not check.ok
        ]


def emit_report(report: Report, fmt: str = "json", trace_rows: tuple[dict, ...] = ()) -> str:
    """Serialize a report deterministically in one of the three formats."""
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    if fmt == "text-summary":
        lines = [f"{report.title}: {'ok' if report.ok else 'FAILED'}"]
        for check in report.checks:
            mark = "pass" if check.ok else "FAIL"
            lines.append(f"  [{mark}] {check.name}")
        lines.extend(f"  ! {line}" for line in report.diff_lines())
        return "\n".join(lines) + "\n"
    if fmt == "csv-trace":
        rows = trace_rows or report.payload.get("trace", ())
        if not rows:
            raise ValueError("report carries no per-step trace to emit as CSV")
        out = io.StringIO()
        fields = sorted({key for row in rows for key in row})
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        return out.getvalue()
    raise ValueError(f"unknown format {fmt!r}; use json, csv-trace or text-summary")


def _csv_cell(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return value


# ----------------------------------------------------------------------
# worked-example reproductions
# ----------------------------------------------------------------------

def reproduce(example_id: str) -> Report:
    """Regenerate a stored worked example and diff against expectations."""
    builders = {
        "fig1": _reproduce_four_point,
        "ex61": _reproduce_absence_trace,
        "exD2": _reproduce_three_cell_family,
        "diamond": _reproduce_diamond,
    }
    if example_id not in builders:
        raise ValueError(f"unknown example {example_id!r}; choose from {sorted(builders)}")
    started = time.perf_counter()
    report = builders[example_id]()
    return Report(report.title, report.checks, report.payload,
                  elapsed_s=round(time.perf_counter() - started, 6))


def _reproduce_four_point() -> Report:
    h = Hypothesis("h", SymbolicSet.finite({1, 2}))
    g = Hypothesis("g", SymbolicSet.finite({1, 3}))
    cells = pair_cells(h, g)
    edges = common_crossing_edges(h, g, range(1, 5))
    vertex_set = cells.gamma()
    checks = (
        Check("region A", "mod 1 { } + { 1 }", cells.cell(A).literal()),
        Check("region B", "mod 1 { } + { 2 }", cells.cell(B).literal()),
        Check("region C", "mod 1 { } + { 3 }", cells.cell(C).literal()),
        Check("common crossing edges on the four points",
              ["{1,4}", "{2,3}"], sorted(str(e) for e in edges)),
        Check("all four points are coverable",
              True, all(vertex_set.contains(x) for x in (1, 2, 3, 4))),
    )
    return Report("four-point crossing configuration", checks)


def _reproduce_absence_trace() -> Report:
    family = CoSingletonClass()
    target = family.member(3)
    stream = corrupt(canonical_contrastive(target), [(3, Pair.of(0, 4))])
    learner = AbsenceCountIdentifier(family)
    state = learner.initial()
    prefix = stream.prefix(6)
    for pair in prefix.items:
        state = learner.advance(state, pair)
    counts = learner.absence_counts(state)
    report = validate(prefix, target, horizon=6)
    checks = (
        Check("absence counts after six pairs",
              {0: 4, 1: 5, 2: 5, 3: 1, 4: 4, 5: 5}, counts),
        Check("output", "h3", learner.read(state).id),
        Check("corrupted indices", (3,), report.xor_violations),
    )
    return Report(
        "absence-count trace on a one-corrupted star",
        checks,
        payload={"prefix": [str(p) for p in prefix.items]},
    )


def _reproduce_three_cell_family() -> Report:
    cls = six_cell_class()
    family = list(cls.members)
    realized = sorted(map(cls.table.bits, cls.table.realized()))
    triple = intersection_of(h.support for h in family)
    pairwise_infinite = all(
        family[i].support.intersect(family[j].support).cardinality().is_infinite
        for i in range(3)
        for j in range(i + 1, 3)
    )
    stream = shared_presentation_family(family)
    clean = stream is not None and all(
        validate(stream.prefix(30), h, horizon=12).clean for h in family
    )
    checks = (
        Check("realized patterns", [
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0),
        ], realized),
        Check("triple intersection empty", True, triple.is_empty()),
        Check("pairwise intersections infinite", True, pairwise_infinite),
        Check("shared presentation validates for all members", True, clean),
    )
    return Report("three-hypothesis six-cell family", checks)


def _reproduce_diamond() -> Report:
    expectations = {
        "disjoint": (NO, YES, NO, YES),
        "punctured": (NO, NO, YES, YES),
        "augmented": (NO, YES, YES, YES),
        "overlap-cover": (YES, YES, YES, YES),
    }
    built = {
        "disjoint": disjoint_support_class(),
        "punctured": punctured_class(8),
        "augmented": augmented_class(8),
        "overlap-cover": overlapping_cover_class(),
    }
    checks = []
    verdicts = {}
    for name, cls in built.items():
        verdict = classify(cls)
        verdicts[name] = verdict.to_json()
        checks.append(Check(f"{name} corner", expectations[name], verdict.corner()))
    return Report("diamond corners", tuple(checks), payload={"verdicts": verdicts})
