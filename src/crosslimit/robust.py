"""Defect numbers, minimum-violation presentations, corrupted identification.

The positive-side defect set of an ordered hypothesis pair (h, g) collects
the positives of h with no incident pair valid for both; covering such an
element forces a pair outside g's crossing set.  Its cardinality, the defect
number, equals the minimum number of g-violations over all clean valid
presentations of h: zero exactly when g is not eliminable from h, infinite
when no finite corruption budget can make g's data look like h's.

The block text identifier and the confusion demo exercise the two sides of
corrupted identification: blocks of size budget+1 make text identification
robust (no false block is ever fully observable), while any family with a
shared contrastive presentation defeats every deterministic contrastive
identifier on that one stream.
"""

from __future__ import annotations

from .classes import Hypothesis, HypothesisClass, block_elements
from .crossing import PatternCells, pair_cells, shared_presentation_family
from .learners import IDENTIFIER, Learner, RunRecord, run
from .space import Cardinality, Record, SymbolicSet
from .streams import CONTRASTIVE, TEXT, Pair, Stream, crosses, paired_stream, validate


class DefectReport(Record):
    """Defect set, its exact cardinality, and an optimal presentation.

    When the defect number is finite, `min_violation_stream` is a clean
    valid presentation of the first hypothesis violating the second exactly
    that often: each defect once with a negative partner, every other
    positive through a common-crossing partner.
    """

    _compared = ("first", "second", "defect_set", "kappa", "min_violation_stream")

    def __init__(self, first: str, second: str, defect_set: SymbolicSet, kappa: Cardinality,
                 min_violation_stream: Stream | None):
        self.__dict__.update(first=first, second=second, defect_set=defect_set, kappa=kappa,
                             min_violation_stream=min_violation_stream)

    @property
    def zero(self) -> bool:
        return self.kappa == Cardinality.finite(0)


def defect(h: Hypothesis, g: Hypothesis) -> DefectReport:
    cells = pair_cells(h, g)
    defect_set = h.support.difference(cells.gamma())
    kappa = defect_set.cardinality()
    stream = _min_violation_stream(h, g, defect_set, cells) if kappa.is_finite else None
    return DefectReport(h.id, g.id, defect_set, kappa, stream)


def _min_violation_stream(h: Hypothesis, g: Hypothesis, defect_set: SymbolicSet,
                          cells: PatternCells) -> Stream:
    h_negative = h.support.complement().min_element()

    # cover each defect once, then the rest (cycled when finite) through
    # harmless common-crossing pairs
    defect_pairs = tuple(Pair.of(x, h_negative) for x in sorted(defect_set.plus))
    clean_part = h.support.difference(defect_set)
    if clean_part.is_empty():
        raise AssertionError("proper nontrivial pair must have a non-defect positive")
    return paired_stream(
        clean_part, cells.partner, f"min-violation({h.id}->{g.id})", (h,), head=defect_pairs
    )


def count_violations(prefix_items, g: Hypothesis) -> int:
    return sum(1 for pair in prefix_items if not crosses(g, pair))


def verify_forced_violations(
    report: DefectReport,
    h: Hypothesis,
    g: Hypothesis,
    trial_streams: list[Stream],
    horizon: int,
    max_steps: int = 4000,
) -> bool:
    """Check the forced-violation lower bound on clean trial presentations.

    Every clean valid presentation of h must violate g at least once per
    defect it covers, so any prefix covering all defects below the horizon
    shows at least that many violations; the constructed minimum-violation
    stream must achieve the defect number exactly when finite.  `report` is
    `defect(h, g)`, which the caller has already computed.
    """
    if (report.first, report.second) != (h.id, g.id):
        raise ValueError(f"report is for {report.first}->{report.second}, not {h.id}->{g.id}")
    forced = set(report.defect_set.enumerate_below(horizon))
    for stream in trial_streams:
        if stream.kind != CONTRASTIVE:
            raise ValueError("trials must be contrastive streams")
        items = []
        covered: set[int] = set()
        for t, pair in enumerate(stream.items(), 1):
            if not crosses(h, pair):
                raise ValueError(
                    f"trial {stream.provenance} is not clean for {h.id} (pair #{t})"
                )
            items.append(pair)
            covered.update(x for x in pair.elements() if x in forced)
            if covered >= forced or t >= max_steps:
                break
        if covered < forced:
            raise ValueError(
                f"trial {stream.provenance} did not cover the defects below "
                f"{horizon} within {max_steps} steps"
            )
        if count_violations(items, g) < len(forced):
            return False
    if report.kappa.is_finite and report.min_violation_stream is not None:
        length = report.kappa.count + 50
        constructed = report.min_violation_stream.prefix(length)
        if validate(constructed, h, horizon).xor_violations:
            return False
        if count_violations(constructed.items, g) != report.kappa.count:
            return False
    return True


# ----------------------------------------------------------------------
# block text identification (robust to a known corruption budget)
# ----------------------------------------------------------------------

class BlockTextIdentifier(Learner):
    """Wait for a fully observed block, then name its hypothesis.

    Over the block family with blocks of size budget+1, at most `budget`
    corrupted text items can never complete a false block, so the first
    fully seen block is the target's.  Before that, the least-index member
    is a placeholder.
    """

    role = IDENTIFIER
    kind = TEXT

    def __init__(self, cls: HypothesisClass):
        if cls.family.kind != "block":
            raise ValueError("block identifier needs a block-family class")
        self.cls = cls
        budget, count = cls.family.params
        self.budget = budget
        self.blocks = {f"h{i}": block_elements(budget, i) for i in range(1, count + 1)}
        self.name = f"block-text(budget={budget})"
        self._elements = frozenset().union(*self.blocks.values())

    def initial(self) -> frozenset[int]:
        return frozenset()  # the block elements seen so far; no other matters

    def advance(self, state: frozenset[int], item: int) -> frozenset[int]:
        return state | {item} if item in self._elements else state

    def complete_blocks(self, state: frozenset[int]) -> list[str]:
        return [h.id for h in self.cls.members if self.blocks[h.id] <= state]

    def read(self, state: frozenset[int]) -> Hypothesis:
        complete = self.complete_blocks(state)
        if complete:
            return self.cls.by_id(complete[0])
        return self.cls.members[0]

    def is_default(self, state: frozenset[int]) -> bool:
        return not self.complete_blocks(state)

    def trace(self, state: frozenset[int]) -> dict:
        return {"complete_blocks": self.complete_blocks(state)}


# ----------------------------------------------------------------------
# confusion demonstrations
# ----------------------------------------------------------------------

class DemoRecord(Record):
    """A shared-stream run: one output sequence, served to every target.

    The learner is deterministic and the stream is valid for every family
    member, so a single run shows the outputs each member would receive;
    every member other than the final guess is failed outright.
    """

    _compared = ("family", "learner", "stream", "outputs", "final_output", "failed_members",
                 "record")

    def __init__(self, family: tuple[str, ...], learner: str, stream: str, outputs: tuple,
                 final_output: str | None, failed_members: tuple[str, ...], record: RunRecord):
        self.__dict__.update(family=family, learner=learner, stream=stream, outputs=outputs,
                             final_output=final_output, failed_members=failed_members,
                             record=record)


def confusion_demo(
    family: list[Hypothesis],
    learner: Learner,
    steps: int = 40,
    stability_window: int = 5,
) -> DemoRecord:
    """Run an identifier on a clean shared presentation for the family.

    Requires the family to admit one (raises otherwise).  The fixed output
    sequence cannot name more than one member, so at least all others fail.
    """
    if learner.role != IDENTIFIER or learner.kind != CONTRASTIVE:
        raise ValueError("confusion demos take contrastive identifiers")
    stream = shared_presentation_family(family)
    if stream is None:
        raise ValueError(
            "family admits no shared contrastive presentation; nothing to demonstrate"
        )
    record = run(learner, stream, steps=steps, stability_window=stability_window)
    final = record.final_output()
    failed = tuple(h.id for h in family if h.id != final)
    return DemoRecord(
        family=tuple(h.id for h in family),
        learner=learner.name,
        stream=stream.provenance,
        outputs=record.outputs,
        final_output=final,
        failed_members=failed,
        record=record,
    )
