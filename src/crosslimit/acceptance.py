"""The acceptance suite: ten machine-checked criteria at fixed tolerances.

Each criterion is a zero-argument callable returning a CriterionResult; the
pytest module tests/test_acceptance.py runs one test per criterion and the
CLI `crosslimit verify` prints one pass/fail line each.  All randomness is
seeded with fixed constants, so the suite is deterministic end to end.
"""

from __future__ import annotations

import itertools
import random

from .classes import (
    CoSingletonClass,
    Hypothesis,
    block_class,
    block_elements,
    co_singleton_class,
    overlapping_cover_class,
    pinned_core_class,
    punctured_class,
    punctured_hole,
    six_cell_class,
)
from .closure import AT_LEAST, EXACT, EdgeSet, closure_dimension, is_hollow
from .crossing import eliminability, eliminable, pair_cells, shared_presentation_family
from .harness import NO, classify, reproduce
from .learners import (
    AbsenceCountIdentifier,
    ClosureGenerator,
    ConstantGenerator,
    EligibilityIdentifier,
    TextFromContrastiveIdentifier,
    compute_telltales,
    generator_breaker,
    run,
)
from .robust import BlockTextIdentifier, confusion_demo, defect, verify_forced_violations
from .space import Record, SymbolicSet
from .streams import (
    Pair,
    canonical_contrastive,
    canonical_text,
    corrupt,
    crosses,
    sampled_contrastive,
    validate,
)


class CriterionResult(Record):
    """A criterion's outcome, filled in as its checks run: mutable, so unhashable."""

    _compared = ("number", "name", "ok", "details")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, number: int, name: str, ok: bool = True, details: list[str] | None = None):
        self.number = number
        self.name = name
        self.ok = ok
        self.details = [] if details is None else details

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.ok = False
            self.details.append(message)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = "" if self.ok else " :: " + "; ".join(self.details[:4])
        return f"[{status}] criterion {self.number}: {self.name}{suffix}"


# ----------------------------------------------------------------------
# 1. absence-count trace and corrupted extensions
# ----------------------------------------------------------------------

def criterion_1_absence_count_trace() -> CriterionResult:
    result = CriterionResult(1, "absence-count trace and corrupted extensions")
    family = CoSingletonClass()
    target = family.member(3)
    trace = reproduce("ex61")
    result.check(trace.ok, f"six-pair trace mismatch: {trace.diff_lines()}")

    injection_pool = [
        (5, Pair.of(0, 4)), (11, Pair.of(1, 5)), (17, Pair.of(2, 6)),
        (23, Pair.of(4, 7)), (29, Pair.of(5, 8)),
    ]
    for budget in (0, 1, 3, 5):
        stream = corrupt(canonical_contrastive(target), injection_pool[:budget])
        learner = AbsenceCountIdentifier(family)
        state = learner.initial()
        for pair in stream.prefix(200).items:
            state = learner.advance(state, pair)
            counts = learner.absence_counts(state)
            if counts.get(3, 0) > budget:
                result.check(False, f"budget {budget}: absence count of 3 exceeded the budget")
                break
        record = run(learner, stream, steps=200, stability_window=20, target=target)
        result.check(record.converged, f"budget {budget}: no convergence")
        result.check(
            record.final_output() == "h3", f"budget {budget}: final output {record.final_output()}"
        )
    return result


# ----------------------------------------------------------------------
# 2. four-point configuration
# ----------------------------------------------------------------------

def criterion_2_four_point_configuration() -> CriterionResult:
    result = CriterionResult(2, "four-point common-crossing configuration")
    report = reproduce("fig1")
    result.check(report.ok, f"mismatches: {report.diff_lines()}")
    return result


# ----------------------------------------------------------------------
# 3. eliminability oracle equivalence
# ----------------------------------------------------------------------

def _random_support(rng: random.Random) -> SymbolicSet:
    while True:
        m = rng.randint(1, 6)
        residues = {r for r in range(m) if rng.random() < 0.5}
        plus = {rng.randrange(40) for _ in range(rng.randint(0, 4))}
        minus = {rng.randrange(40) for _ in range(rng.randint(0, 4))} - plus
        s = SymbolicSet.build(m, residues, plus, minus)
        if not s.is_empty() and not s.complement().is_empty():
            return s


def criterion_3_eliminability_oracles() -> CriterionResult:
    result = CriterionResult(3, "eliminability verdicts agree with brute force")
    rng = random.Random(300)
    checked = 0
    while checked < 500:
        h = Hypothesis("h", _random_support(rng))
        g = Hypothesis("g", _random_support(rng))
        if h.support == g.support:
            continue
        checked += 1
        cells = pair_cells(h, g)
        region_verdict = eliminability(cells).eliminable  # the lonely-cell rule
        coverage_verdict = not h.support.is_subset(cells.gamma())
        horizon = max(cells.least) + 1
        brute = False
        for x in h.support.enumerate_below(horizon):
            if not any(
                y != x and crosses(h, Pair.of(x, y)) and crosses(g, Pair.of(x, y))
                for y in range(horizon)
            ):
                brute = True  # an uncoverable positive: g is eliminable
                break
        if not (region_verdict == coverage_verdict == brute):
            result.check(
                False,
                f"disagreement on {h.support.literal()} vs {g.support.literal()}: "
                f"regions={region_verdict} coverage={coverage_verdict} brute={brute}",
            )
            break
    result.check(checked >= 500, "fewer than 500 pairs sampled")
    return result


# ----------------------------------------------------------------------
# 4. diamond classification
# ----------------------------------------------------------------------

def criterion_4_diamond_classification() -> CriterionResult:
    result = CriterionResult(4, "diamond corners classify exactly")
    report = reproduce("diamond")
    result.check(report.ok, f"corner mismatches: {report.diff_lines()}")
    verdicts = report.payload["verdicts"]
    for name, mechanism in (("disjoint", "finite-intersection-obstruction"),
                            ("punctured", "eventual-core"), ("augmented", "safe-core")):
        actual = verdicts[name]["ctr_gen"]["mechanism"]
        result.check(actual == mechanism, f"{name} generation mechanism {actual}")
    regime = verdicts["augmented"]["ctr_id"]["witness"]["regime"]
    result.check(regime == "non-covering", f"augmented barrier regime {regime}")

    # anti-tell-tale witness at desk scale: every candidate tell-tale of the
    # limit hypothesis below the sweep horizon sits inside some puncture
    sweep_horizon = 16
    base = punctured_class(8).by_id("h_inf").support
    candidates = base.enumerate_below(sweep_horizon)
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            telltale = set(combo)
            hole = next(x for x in base.members() if x not in telltale)
            m = hole // 2 + 1
            containing = base.difference(SymbolicSet.finite({punctured_hole(m)}))
            if not SymbolicSet.finite(telltale).is_subset(containing):
                result.check(False, f"candidate tell-tale {sorted(telltale)} not swallowed")
                break

    overlap = overlapping_cover_class()
    telltales = compute_telltales(overlap)
    combos = [(target, seed) for target in overlap.members for seed in range(7)][:20]
    for target, seed in combos:
        learner = EligibilityIdentifier(overlap, telltales)
        stream = sampled_contrastive(target, seed=seed, horizon=24)
        record = run(learner, stream, steps=40, stability_window=5, target=target)
        result.check(
            record.converged and record.final_output() == target.id,
            f"eligibility failed on scripted stream seed={seed} target={target.id}",
        )
    return result


# ----------------------------------------------------------------------
# 5. uniform generation tightness
# ----------------------------------------------------------------------

GENERATED_CLASS_RECIPES = [
    (3, (), (1,)), (3, (), (1, 2)),
    (3, (0,), (1,)), (3, (0,), (2,)), (3, (6,), (1,)), (4, (0,), (1,)), (4, (5,), (2,)),
    (3, (0, 3), (1,)), (3, (0,), (1, 4)), (4, (0, 4), (1,)), (4, (0,), (2, 3)),
    (3, (6, 9), (2,)),
    (3, (0, 3, 6), (1,)), (3, (0,), (1, 4, 7)), (4, (0, 4, 8), (1,)), (4, (0,), (1, 2, 3)),
    (3, (0, 3), (1, 4)), (4, (0, 4), (1, 2)), (4, (0, 1), (2, 3)), (3, (0, 3, 6), (1, 4)),
]


def criterion_5_uniform_generation_tightness() -> CriterionResult:
    result = CriterionResult(5, "closure generator tight at dimension + 1")
    result.check(len(GENERATED_CLASS_RECIPES) >= 20, "need at least 20 generated classes")
    for span, core, anchors in GENERATED_CLASS_RECIPES:
        cls = pinned_core_class(span, core, anchors)
        report = closure_dimension(cls)
        expected = len(core) * len(anchors)
        result.check(
            report.outcome == EXACT and report.dimension == expected,
            f"{span}/{core}/{anchors}: dimension {report} != exact({expected})",
        )
        if not result.ok:
            break
        generator = ClosureGenerator(cls, report.dimension)
        failures = 0
        for seed in range(50):
            target = cls.members[seed % len(cls.members)]
            stream = sampled_contrastive(target, seed=seed, horizon=6 * span)
            state = generator.initial()
            for pair in stream.prefix(12).items:
                state = generator.advance(state, pair)
                if len(state.edges) > report.dimension:
                    output = generator.read(state)
                    if output in state.edges or not target.contains(output):
                        failures += 1
        result.check(failures == 0, f"{span}/{core}/{anchors}: {failures} generation failures")

        witness = report.witness
        result.check(
            witness is not None and len(witness) == report.dimension and is_hollow(cls, witness),
            f"{span}/{core}/{anchors}: no verified hollow witness of size {report.dimension}",
        )
        if witness is None:
            continue
        for target_gen in (generator, ConstantGenerator(97), ConstantGenerator(min(witness.vertices(), default=97))):
            broken = generator_breaker(cls, target_gen, witness)
            result.check(
                broken.kind in ("novelty-violation", "misclassification"),
                f"{span}/{core}/{anchors}: breaker did not defeat {target_gen.name}",
            )
    return result


# ----------------------------------------------------------------------
# 6. hollowness ladder
# ----------------------------------------------------------------------

def criterion_6_hollowness_ladder() -> CriterionResult:
    result = CriterionResult(6, "puncture ladder hollow at every size up to 10")
    cls = punctured_class(10)
    for n in range(1, 11):
        ladder = EdgeSet.of(Pair.of(punctured_hole(i), 1) for i in range(1, n + 1))
        result.check(is_hollow(cls, ladder), f"ladder of size {n} not hollow")
    report = closure_dimension(cls, max_size=10, vertex_horizon=24)
    result.check(
        report.outcome == AT_LEAST and report.dimension == 10,
        f"dimension search returned {report}",
    )
    result.check(
        report.witness is not None and is_hollow(cls, report.witness),
        "dimension witness does not re-verify",
    )
    return result


# ----------------------------------------------------------------------
# 7. defect calculus
# ----------------------------------------------------------------------

def _finite_kappa_pair(rng: random.Random) -> tuple[Hypothesis, Hypothesis]:
    """A pair whose defect set is exactly a finite shared region."""
    m = rng.randint(2, 5)
    split = rng.randint(1, m - 1)
    residues = list(range(m))
    rng.shuffle(residues)
    first, second = set(residues[:split]), set(residues[split:])
    shared = {rng.randrange(30) for _ in range(rng.randint(0, 3))}
    h = Hypothesis("h", SymbolicSet.residue_class(m, first).union(SymbolicSet.finite(shared)))
    g = Hypothesis("g", SymbolicSet.residue_class(m, second).union(SymbolicSet.finite(shared)))
    return h, g


def criterion_7_defect_calculus() -> CriterionResult:
    result = CriterionResult(7, "defect numbers and minimum-violation streams")
    family = co_singleton_class()
    report = defect(family.member(2), family.member(6))
    result.check(report.kappa.is_infinite, "co-singleton defect number not infinite")

    rng = random.Random(700)
    finite_checked = 0
    while finite_checked < 200:
        h, g = _finite_kappa_pair(rng)
        if h.support == g.support:
            continue
        d = defect(h, g)
        if not d.kappa.is_finite:
            continue
        finite_checked += 1
        horizon = max(d.defect_set.plus, default=0) + 2
        trials = [
            canonical_contrastive(h),
            sampled_contrastive(h, seed=finite_checked, horizon=horizon + 20),
        ]
        try:
            ok = verify_forced_violations(d, h, g, trials, horizon=horizon)
        except ValueError as exc:
            result.check(False, f"verification error: {exc}")
            break
        if not ok:
            result.check(False, f"violation bound failed for {h.support.literal()} vs "
                                 f"{g.support.literal()}")
            break
        if (d.kappa.count == 0) != (not eliminable(h, g).eliminable):
            result.check(False, "kappa zero does not match non-eliminability")
            break

    rng2 = random.Random(701)
    sampled = 0
    while sampled < 200:
        h = Hypothesis("h", _random_support(rng2))
        g = Hypothesis("g", _random_support(rng2))
        if h.support == g.support:
            continue
        sampled += 1
        zero = defect(h, g).zero
        if zero != (not eliminable(h, g).eliminable):
            result.check(False, "kappa-zero equivalence failed on a random pair")
            break
    return result


# ----------------------------------------------------------------------
# 8. corrupted incomparability
# ----------------------------------------------------------------------

def criterion_8_corrupted_incomparability() -> CriterionResult:
    result = CriterionResult(8, "block identification under corruption; confusion demo")
    for budget in (1, 2, 3):
        cls = block_class(budget, 4)
        rng = random.Random(800 + budget)
        for script in range(20):
            target = cls.members[script % len(cls.members)]
            false_ids = [h.id for h in cls.members if h.id != target.id]
            false_block = sorted(
                block_elements(budget, int(rng.choice(false_ids)[1:]))
            )
            chosen = rng.sample(false_block, k=min(budget, len(false_block) - 1))
            indices = rng.sample(range(1, 40), k=len(chosen))
            injections = sorted(zip(indices, chosen))
            stream = corrupt(canonical_text(target), injections)
            record = run(
                BlockTextIdentifier(cls), stream,
                steps=80, stability_window=10, target=target,
            )
            if not (record.converged and record.final_output() == target.id):
                result.check(
                    False,
                    f"budget {budget} script {script}: identifier missed {target.id}",
                )
                break

        family = [cls.members[0], cls.members[1]]
        learner = EligibilityIdentifier(cls, compute_telltales(cls))
        demo = confusion_demo(family, learner, steps=40)
        result.check(
            len(demo.failed_members) >= 1,
            f"budget {budget}: confusion demo failed no member",
        )
        prefix = shared_presentation_family(family).prefix(30)
        clean = all(validate(prefix, member, horizon=10).clean for member in family)
        result.check(clean, f"budget {budget}: shared stream is not clean for the family")
    return result


# ----------------------------------------------------------------------
# 9. three-hypothesis obstruction
# ----------------------------------------------------------------------

def criterion_9_three_cell_family() -> CriterionResult:
    result = CriterionResult(9, "six-cell family: shared triple, infinite pairs")
    report = reproduce("exD2")
    result.check(report.ok, f"reproduction mismatches: {report.diff_lines()}")
    verdict = classify(six_cell_class())
    result.check(
        verdict.ctr_gen.status == NO
        and verdict.ctr_gen.witness["family"] == ["h1", "h2", "h3"],
        "obstruction did not fire with the size-3 witness",
    )
    return result


# ----------------------------------------------------------------------
# 10. text simulation of a contrastive identifier
# ----------------------------------------------------------------------

def criterion_10_text_simulation() -> CriterionResult:
    result = CriterionResult(10, "synthetic-pair text identifier with partner bound")
    overlap = overlapping_cover_class()
    telltales = compute_telltales(overlap)
    for target in overlap.members:
        learner = TextFromContrastiveIdentifier(EligibilityIdentifier(overlap, telltales))
        stream = canonical_text(target)
        record = run(learner, stream, steps=40, stability_window=5, target=target)
        result.check(
            record.converged and record.final_output() == target.id,
            f"no convergence on the canonical text for {target.id}",
        )
        zstar = target.support.complement().min_element()
        below = target.support.enumerate_below(zstar)
        positions = [
            t for t, item in enumerate(stream.prefix(40).items, 1) if item in below
        ]
        bound = (max(positions) if positions else 0) + 1
        state = learner.initial()
        stabilized = None
        for n, item in enumerate(stream.prefix(40).items, 1):
            state = learner.advance(state, item)
            if learner.current_partner(state) == zstar:
                if stabilized is None:
                    stabilized = n
            else:
                stabilized = None
        result.check(
            stabilized is not None and stabilized <= bound,
            f"{target.id}: partner stabilized at {stabilized}, bound {bound}",
        )
    return result


ALL_CRITERIA = [
    criterion_1_absence_count_trace,
    criterion_2_four_point_configuration,
    criterion_3_eliminability_oracles,
    criterion_4_diamond_classification,
    criterion_5_uniform_generation_tightness,
    criterion_6_hollowness_ladder,
    criterion_7_defect_calculus,
    criterion_8_corrupted_incomparability,
    criterion_9_three_cell_family,
    criterion_10_text_simulation,
]


def run_all(echo=print) -> list[CriterionResult]:
    results = []
    for criterion in ALL_CRITERIA:
        outcome = criterion()
        results.append(outcome)
        if echo is not None:
            echo(outcome.line())
    return results
