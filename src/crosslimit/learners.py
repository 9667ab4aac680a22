"""Identifiers and generators with a uniform step interface.

A learner consumes one presentation kind and exposes three pure methods:
`initial()` giving a starting state, `advance(state, item)` folding in one
observation, and `read(state)` producing the current output (a hypothesis
for identifiers, an example for generators).  States are value-semantic and
never mutated, so identical prefixes always reproduce identical outputs and
every run record replays bit-for-bit.

Per-step cost: `advance` and `read` cost O(1) amortised, growing with the
class and the size of the answer but not with the steps before, except that
a punctured closure is one pass over the edges, O(t) per read; `run` plays
the stream's walk, O(1) amortised per item.  States are slotted record
classes built once per step, share their history through append-only logs
and carry the values their reads need (the absence-count guess, the members
whose tell-tale is seen, a generator's closures while its version spaces
stay), passed on while they cannot change; a generator's read is memoised
on its state, and `advance` records the output from that memo.  A version
space is a member bitmask, ANDed with each new edge's crossing mask (from
the class's memoised member patterns); :func:`~crosslimit.closure.closure_of`
gives its closure by the class's family descriptor, from the memoised meets
or, where the family's closures read the edges, from the edges.  The breaker
asks the descriptor for the family's members past the member list, and
tell-tales come from the class's cell table.  Equality is `Record`'s, over
compared fields that leave the caches out, so no cache changes what
compares equal or is recorded.

Uniform generation is the one-class case of non-uniform generation: the
closure generator is the one-level threshold-and-defer chain, armed once the
distinct edges outnumber the closure dimension.

The run harness executes a learner against a stream, detecting convergence
with a stability window: limits are not finitely observable, so a run
reports the start of the longest correct tail, provided the tail is at least
one window long.  Runs with known analytic convergence bounds additionally
assert those bounds in the test suite.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import defaultdict
from typing import Callable

from .classes import CoSingletonClass, FamilyInfo, Hypothesis, HypothesisClass
from .closure import (
    ClosureResult,
    EdgeSet,
    _members_in,
    closure_of,
    crossing_mask,
    edge_version_space,
    is_hollow,
)
from .space import Record, SymbolicSet
from .streams import CONTRASTIVE, INFORMANT, ITEM_RULES, TEXT, Pair, Stream

IDENTIFIER = "identifier"
GENERATOR = "generator"


class EmptySafeChoice(Exception):
    """The safe-set rule found nothing to output: the class lacks an
    infinite safe core at this prefix."""


class Learner:
    """Base for all learners; subclasses fill in the three pure methods."""

    role: str = IDENTIFIER
    kind: str = CONTRASTIVE
    name: str = "learner"

    def initial(self):
        raise NotImplementedError

    def advance(self, state, item):
        raise NotImplementedError

    def read(self, state):
        raise NotImplementedError

    def is_default(self, state) -> bool:
        """Whether `read` falls back to a placeholder; `run` flags such steps."""
        return False

    def trace(self, state) -> dict:
        return {}


class _Log:
    """The first n entries of an append-only history shared along a run.

    Successive states of a run share one store, so `appended` costs O(1)
    instead of a copy of the prefix: a log at the tip of its store extends
    it in place, and an older log first forks a copy of its own n entries.
    A log never looks past its own n, so it acts as an immutable value, and
    equality compares entries.  Entries are indexed for membership tests and
    occurrence counts, a pair also under each of its two elements.
    """

    __slots__ = ("_entries", "_steps", "_n")

    def __init__(self):  # _steps files each key under its ascending entry numbers
        self._entries, self._steps, self._n = [], defaultdict(list), 0

    def appended(self, entry) -> "_Log":
        entries, n = self._entries, self._n
        if n < len(entries):  # an older state branches off: fork
            fork = _Log()
            for old in self:
                fork = fork.appended(old)
            return fork.appended(entry)
        entries.append(entry)
        n += 1
        steps = self._steps
        steps[entry].append(n)
        if type(entry) is Pair:
            steps[entry[0]].append(n)
            steps[entry[1]].append(n)
        out = object.__new__(_Log)  # the tip's successor: same store, one more entry
        out._entries, out._steps, out._n = entries, steps, n
        return out

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return itertools.islice(self._entries, self._n)

    def __contains__(self, key) -> bool:
        steps = self._steps.get(key)
        return steps is not None and steps[0] <= self._n

    def count(self, key) -> int:
        """How many of the n entries are filed under `key`."""
        return bisect_right(self._steps.get(key, ()), self._n)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Log) and list(self) == list(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


# ----------------------------------------------------------------------
# tell-tale sets
# ----------------------------------------------------------------------

class TellTaleFamily(Record):
    """Per-hypothesis finite distinguishing sets.

    entries[g] is a finite subset of supp(g) contained in no member support
    that is strictly below supp(g); seeing it rules out every strict
    sub-hypothesis.
    """

    _compared = ("entries",)

    def __init__(self, entries: dict[str, frozenset[int]]):
        object.__setattr__(self, "entries", entries)  # one field: no dict update

    def of(self, hid: str) -> frozenset[int]:
        return self.entries[hid]


def compute_telltales(cls: HypothesisClass) -> TellTaleFamily:
    """Greedy tell-tales: least difference witness per strict sub-support.

    For each member pair with supp(f) strictly below supp(g), the least
    element of supp(g) minus supp(f) joins g's tell-tale.  Each witness is
    exact, so a finite class always gets finite tell-tales.
    """
    table = cls.table  # the least of a difference: its first cell in least-element order
    return TellTaleFamily({
        g.id: frozenset(table.least_of(table.columns[j] & ~table.columns[i])
                        for i in table.strictly_below[j])
        for j, g in enumerate(cls.members)})


def telltales_sound(cls: HypothesisClass, family: TellTaleFamily) -> bool:
    """Exact check of the tell-tale conditions over the member tuple with the
    set algebra's `is_subset`; strict inclusions come from the cell table."""
    for j, g in enumerate(cls.members):
        telltale = SymbolicSet.finite(family.of(g.id))
        if not telltale.is_subset(g.support):
            return False
        for i in cls.table.strictly_below[j]:
            if telltale.is_subset(cls.members[i].support):
                return False
    return True


# ----------------------------------------------------------------------
# identifiers
# ----------------------------------------------------------------------

class _State(Record):
    """A step state: a value, never changed but for the memos reads fill in.

    Slotted and not frozen, as every step builds one and slot stores are the
    cheapest way to fill it; equality and hashing are Record's, over the
    compared fields, and repr shows every field.
    """

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


class _EligState(_State):
    __slots__ = _shown = ("seen", "space", "ready")
    _compared = ("seen", "space")

    def __init__(self, seen: frozenset[int], space: int, ready: int):
        self.seen = seen  # the tell-tale elements seen so far; no other matters
        self.space = space  # members whose cut every pair crosses, as a member bitmask
        self.ready = ready  # members whose tell-tale is in `seen`


class EligibilityIdentifier(Learner):
    """Least-index member whose tell-tale is seen and whose cut every pair
    crosses; defaults to the first member before any is eligible."""

    role = IDENTIFIER
    kind = CONTRASTIVE

    def __init__(self, cls: HypothesisClass, telltales: TellTaleFamily):
        self.cls = cls
        self.telltales = telltales
        self.name = "eligibility"
        self._marks = frozenset().union(*telltales.entries.values())
        full = (1 << len(cls.members)) - 1
        self._initial = _EligState(frozenset(), full, self._ready(frozenset()))

    def _ready(self, seen: frozenset[int]) -> int:
        """The members whose tell-tale is contained in `seen`, as a member bitmask."""
        return sum(1 << i for i, h in enumerate(self.cls.members)
                   if self.telltales.of(h.id) <= seen)

    def initial(self) -> _EligState:
        return self._initial

    def advance(self, state: _EligState, pair: Pair) -> _EligState:
        seen, ready, marks = state.seen, state.ready, self._marks
        lo, hi = pair
        if (lo in marks and lo not in seen) or (hi in marks and hi not in seen):
            seen = seen | marks.intersection(pair)
            ready = self._ready(seen)
        return _EligState(seen, state.space & crossing_mask(self.cls, pair), ready)

    def eligible(self, state: _EligState) -> list[Hypothesis]:
        return _members_in(self.cls, state.space & state.ready)

    def read(self, state: _EligState) -> Hypothesis:
        eligible = state.space & state.ready
        return self.cls.members[(eligible & -eligible).bit_length() - 1 if eligible else 0]

    def is_default(self, state: _EligState) -> bool:
        return not state.space & state.ready

    def trace(self, state: _EligState) -> dict:
        return {"eligible": [h.id for h in self.eligible(state)]}


class TextFromContrastiveIdentifier(Learner):
    """Text identifier simulating a contrastive one on synthetic pairs.

    Each text prefix is read as pairs (x_t, z_n) where z_n is the least
    unseen example; z_n eventually freezes at the least non-positive of the
    target, after which the inner identifier sees prefixes of one fixed
    valid stream and converges.  The inner state advances by one pair per
    step, and the text is replayed only when z_n moves, at most z* + 1 times.
    """

    role = IDENTIFIER
    kind = TEXT

    def __init__(self, inner: Learner):
        if inner.kind != CONTRASTIVE or inner.role != IDENTIFIER:
            raise ValueError("wrap a contrastive identifier")
        self.inner = inner
        self.name = f"text-from({inner.name})"

    def initial(self) -> tuple:
        # (the text so far, the partner z: least example not in it, the
        # inner state after the pairs (x_t, z) for every item)
        return (_Log(), 0, self.inner.initial())

    def advance(self, state: tuple, item: int) -> tuple:
        items, z, inner = state
        items = items.appended(item)
        while z in items:
            z += 1
        if z == state[1]:
            return (items, z, self.inner.advance(inner, Pair.of(item, z)))
        inner = self.inner.initial()
        for x in items:
            inner = self.inner.advance(inner, Pair.of(x, z))
        return (items, z, inner)

    def read(self, state: tuple):
        return self.inner.read(state[2])

    def current_partner(self, state: tuple) -> int:
        return state[1]


class _AbsenceState(_State):
    __slots__ = _shown = ("pairs", "best", "guess")
    _compared = ("pairs", "best")

    def __init__(self, pairs: _Log, best: int | None, guess: Hypothesis):
        self.pairs = pairs  # the pairs so far
        self.best = best  # most frequent element so far, ties to the least
        self.guess = guess  # the member read gives


class AbsenceCountIdentifier(Learner):
    """Output the co-singleton centered at the absence-count minimizer.

    The absence count of x after n pairs is the number of pairs omitting x.
    The unique negative of the target is incident to every honest pair, so
    its count is bounded by the corruption total while every other seen
    example's count diverges; no corruption budget is consumed as input.
    """

    role = IDENTIFIER
    kind = CONTRASTIVE

    def __init__(self, family: FamilyInfo | None = None):
        self.family = family or CoSingletonClass()
        self.name = "absence-count"
        if self.family.identifier != self.name:
            raise ValueError("absence-count runs over the co-singleton family only")
        self._default = self.family.member(0)

    def initial(self) -> _AbsenceState:
        return _AbsenceState(_Log(), None, self._default)

    def advance(self, state: _AbsenceState, pair: Pair) -> _AbsenceState:
        # only the pair's elements gained a count, so the least absence
        # count (ties to the least x) is theirs or stays where it was
        pairs = state.pairs.appended(pair)
        best, top = state.best, -1 if state.best is None else pairs.count(state.best)
        for x in pair:  # ascending, so a tie goes to the least
            count = pairs.count(x)
            if count > top or (count == top and x < best):
                best, top = x, count
        guess = state.guess if best == state.best else self.family.member(best)
        return _AbsenceState(pairs, best, guess)

    def absence_counts(self, state: _AbsenceState) -> dict[int, int]:
        seen = {x for pair in state.pairs for x in pair.elements()}
        return {x: len(state.pairs) - state.pairs.count(x) for x in sorted(seen)}

    def read(self, state: _AbsenceState) -> Hypothesis:
        return state.guess

    def is_default(self, state: _AbsenceState) -> bool:
        return state.best is None

    def trace(self, state: _AbsenceState) -> dict:
        return {"absence_counts": self.absence_counts(state)}


class GoldInformantIdentifier(Learner):
    """Least-index member consistent with every labeled example so far."""

    role = IDENTIFIER
    kind = INFORMANT

    def __init__(self, cls: HypothesisClass):
        self.cls = cls
        self.name = "gold-informant"

    def initial(self) -> int:
        """The members consistent with the labels so far, as a member bitmask."""
        return (1 << len(self.cls.members)) - 1

    def advance(self, state: int, item: tuple[int, int]) -> int:
        x, label = item
        pattern = self.cls.pattern(x)  # the members that label x positive
        return state & (pattern if label else ~pattern)

    def read(self, state: int) -> Hypothesis:
        return self.cls.members[(state & -state).bit_length() - 1 if state else 0]

    def is_default(self, state: int) -> bool:
        return not state

    def trace(self, state: int) -> dict:
        return {"consistent": [h.id for h in _members_in(self.cls, state)]}


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

class _GenState(_State):
    __slots__ = _shown = ("count", "edges", "outputs", "inner",
                          "_masks", "_closures", "_cursor", "_output")
    _compared = ("count", "edges", "outputs", "inner")

    def __init__(self, count: int, edges: _Log, outputs: _Log, inner: object = None,
                 _masks: tuple[int, ...] = (), _closures: list = None,
                 _cursor: tuple = (None, 0), _output: object = None):
        self.count = count
        self.edges = edges  # distinct edges in arrival order; `x in edges` finds vertices
        self.outputs = outputs  # outputs of the earlier steps, in order
        self.inner = inner  # the wrapped identifier's state (identify-then-generate)
        self._masks = _masks  # version space per class
        # closure per class, filled by the first read and shared while the masks stay
        self._closures = _closures
        self._cursor = _cursor  # (support, last least fresh member)
        self._output = _output  # the read or the EmptySafeChoice it raises; None before it

    def excludes(self, x: int) -> bool:
        """x was seen or already output."""
        return x in self.edges or x in self.outputs


class _PairGenerator(Learner):
    """Shared bookkeeping for contrastive generators: distinct edges, seen
    elements, and prior outputs (novelty discipline).

    Advancing from the state after n-1 observations records that step's
    output, so `read` after n observations excludes exactly the outputs of
    steps 1 through n-1.  Subclasses compute the output in `_answer`; it is
    memoised on the state, so `advance` reuses what `run` already read.
    """

    role = GENERATOR
    kind = CONTRASTIVE
    classes: tuple[HypothesisClass, ...] = ()  # classes whose version spaces states track
    inner: Learner | None = None  # the identifier identify-then-generate wraps

    def initial(self) -> _GenState:
        masks = tuple((1 << len(cls.members)) - 1 for cls in self.classes)
        inner = None if self.inner is None else self.inner.initial()
        return _GenState(0, _Log(), _Log(), inner, masks, [None] * len(masks))

    def advance(self, state: _GenState, pair: Pair) -> _GenState:
        output = self._output(state) if state.count else None  # none before the first observation
        edges, masks, closures = state.edges, state._masks, state._closures
        if pair not in edges:
            edges = edges.appended(pair)
            if masks:
                masks = tuple([m & crossing_mask(cls, pair) for cls, m in zip(self.classes, masks)])
                if masks != state._masks:
                    closures = [None] * len(masks)
        # an EmptySafeChoice emitted nothing
        outputs = state.outputs.appended(output) if isinstance(output, int) else state.outputs
        inner = state.inner if self.inner is None else self.inner.advance(state.inner, pair)
        return _GenState(state.count + 1, edges, outputs, inner, masks, closures, state._cursor)

    def read(self, state: _GenState) -> int:
        output = self._output(state)
        if isinstance(output, EmptySafeChoice):
            raise output
        return output

    def _output(self, state: _GenState) -> int | EmptySafeChoice:
        """The read memoised on the state: an output, or the EmptySafeChoice `read` raises."""
        output = state._output
        if output is None:
            try:
                output = self._answer(state)
            except EmptySafeChoice as exc:
                output = exc
            state._output = output
        return output

    def _closure(self, state: _GenState, level: int = 0) -> ClosureResult:
        closure = state._closures[level]
        if closure is None:
            cls = self.classes[level]
            closure = closure_of(cls, state._masks[level], state.edges)
            if not cls.family.reads_edges:
                state._closures[level] = closure  # the states sharing the list share the masks
        return closure

    def _fresh(self, state: _GenState, support: SymbolicSet,
               excluded: Callable[[int], bool]) -> int | None:
        """Least member x of `support` with `excluded(x)` false, or None.

        The excluded set only grows along a run, so while the support stays
        the same the answer never decreases: the scan resumes from the last
        answer, which the state passes on to its successors.
        """
        last_support, x = state._cursor
        if last_support is not support and last_support != support:
            x = 0
        if support.is_finite():
            least = next((y for y in support.sorted_parts[1] if y >= x and not excluded(y)), None)
        else:
            contains = support.contains
            while not contains(x) or excluded(x):
                x += 1
            least = x
        if least is not None:
            state._cursor = (support, least)
        return least


class ChainGenerator(_PairGenerator):
    """Non-uniform generation by threshold-and-defer over a chain of classes.

    Level m (1-based) becomes usable once the distinct-edge count reaches
    m + dims[m-1] + 1; the generator picks the deepest usable level whose
    version space is nonempty and outputs the least closure escape there.
    """

    def __init__(self, chain: list[HypothesisClass], dims: list[int]):
        if len(chain) != len(dims):
            raise ValueError("chain and dims must align")
        for earlier, later in zip(chain, chain[1:]):
            early = {(h.id, h.support) for h in earlier.members}
            late = {(h.id, h.support) for h in later.members}
            if not early <= late:
                raise ValueError("chain must be nondecreasing")
        self.chain = chain
        self.thresholds = [m + d + 1 for m, d in zip(itertools.count(1), dims)]
        self.name = f"chain-gen({len(chain)} levels)"
        self.classes = tuple(chain)

    def _answer(self, state: _GenState) -> int:
        for i in reversed(range(len(self.thresholds))):
            if self.thresholds[i] > len(state.edges):
                continue
            closure = self._closure(state, i)
            if closure.is_bottom:
                continue
            least = self._fresh(state, closure.value, state.edges.__contains__)
            if least is not None:
                return least
        return 0


class ClosureGenerator(ChainGenerator):
    """Uniform generation: the one-level chain, armed at d + 1 distinct edges.

    It outputs the least closure element outside the seen vertices.  Sound
    once the distinct-edge count exceeds the class's closure dimension d:
    the edge set is then not hollow, so the closure escapes its own vertex
    set and every escape is a certified novel positive.  Below the threshold
    the output is an unconstrained placeholder (0).
    """

    def __init__(self, cls: HypothesisClass, dimension: int):
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        super().__init__([cls], [dimension - 1])  # level 1 arms at 1 + (d - 1) + 1 edges
        self.cls = cls
        self.dimension = dimension
        self.name = f"closure-gen(d={dimension})"

    def trace(self, state: _GenState) -> dict:
        return {"distinct_edges": len(state.edges),
                "armed": len(state.edges) >= self.thresholds[0]}


class SafeCoreGenerator(_PairGenerator):
    """Least never-seen, never-output element of the current safe set.

    Intended for classes whose safe set stays infinite on every valid
    prefix; when the choice set empties instead, the rule raises
    EmptySafeChoice to signal the missing safe-core property.
    """

    def __init__(self, cls: HypothesisClass):
        self.cls = cls
        self.name = "safe-core-gen"
        self.classes = (cls,)

    def _answer(self, state: _GenState) -> int:
        closure = self._closure(state)
        if closure.is_bottom:
            raise EmptySafeChoice("version space is empty")
        least = self._fresh(state, closure.value, state.excludes)
        if least is None:
            raise EmptySafeChoice("safe set exhausted by seen elements and outputs")
        return least


class EventualCoreGenerator(_PairGenerator):
    """Walk an injective core sequence, skipping seen elements and repeats.

    At step n the output is r_m for the least m >= n avoiding everything
    seen or already output; if the core's tail eventually enters every
    target support, outputs are eventually correct.
    """

    def __init__(self, core: Callable[[int], int], name: str = "eventual-core-gen"):
        self.core = core
        self.name = name

    def _answer(self, state: _GenState) -> int:
        m = max(state.count, 1)
        # an injective core leaves the seen vertices and outputs within this many steps
        for _ in range(2 * len(state.edges) + len(state.outputs) + 1):
            value = self.core(m)
            if not state.excludes(value):
                return value
            m += 1
        raise AssertionError("injective core cannot exhaust")


class IdentifyThenGenerate(_PairGenerator):
    """Run an identifier and emit fresh elements of the current guess.

    Once the identifier converges to an infinite-support target, every
    output is a novel positive.  A finite guess support can exhaust; the
    rule then falls back to the placeholder 0.
    """

    def __init__(self, inner: Learner):
        if inner.role != IDENTIFIER or inner.kind != CONTRASTIVE:
            raise ValueError("wrap a contrastive identifier")
        self.inner = inner
        self.name = f"identify-then-generate({inner.name})"

    def _answer(self, state: _GenState) -> int:
        guess = self.inner.read(state.inner)
        least = self._fresh(state, guess.support, state.excludes)
        return least if least is not None else 0

    def is_default(self, state: _GenState) -> bool:
        return self.inner.is_default(state.inner)

    def trace(self, state: _GenState) -> dict:
        return {"guess": self.inner.read(state.inner).id, **self.inner.trace(state.inner)}


# ----------------------------------------------------------------------
# the breaker for hollow witnesses
# ----------------------------------------------------------------------

NOVELTY_VIOLATION = "novelty-violation"
MISCLASSIFICATION = "misclassification"


class FailureWitness(Record):
    """How a generator fails on a hollow edge set presented as a prefix."""

    _compared = ("kind", "output", "hypothesis", "extension")

    def __init__(self, kind: str, output: int, hypothesis: Hypothesis | None, extension: str):
        self.__dict__.update(kind=kind, output=output, hypothesis=hypothesis, extension=extension)

    def __str__(self) -> str:
        if self.kind == NOVELTY_VIOLATION:
            return f"output {self.output} repeats a presented vertex"
        return (
            f"output {self.output} is outside supp({self.hypothesis.id}); {self.extension}"
        )


def generator_breaker(
    cls: HypothesisClass, generator: Learner, hollow: EdgeSet
) -> FailureWitness:
    """Defeat a generator at exactly |hollow| distinct edges.

    Presents the hollow set's edges in lexicographic order.  The produced
    output either repeats a vertex of the presentation (novelty violation)
    or lies outside some surviving hypothesis's support, and that hypothesis
    extends the prefix to a full valid presentation on which the generator
    errs at this step.
    """
    if not is_hollow(cls, hollow):
        raise ValueError("breaker needs a verified hollow edge set")
    state = generator.initial()
    for pair in sorted(hollow.edges):
        state = generator.advance(state, pair)
    output = generator.read(state)
    if output in hollow.vertices():
        return FailureWitness(NOVELTY_VIOLATION, output, None, "")
    survivors = edge_version_space(cls, hollow)
    victim = next((h for h in survivors if not h.contains(output)), None)
    if victim is None:
        # a closure read from the edges: the family's member past the list
        # that leaves out the output survives any edge set avoiding it
        victim = cls.family.member(output)
    if victim is None:
        raise AssertionError("hollow closure must exclude the output for some survivor")
    zstar = victim.support.complement().min_element()
    extension = (
        f"extend by pairing the remaining positives of {victim.id} with {zstar}"
    )
    return FailureWitness(MISCLASSIFICATION, output, victim, extension)


class ConstantGenerator(_PairGenerator):
    """Always outputs the same example; a breaker demonstration target."""

    def __init__(self, value: int):
        self.value = value
        self.name = f"constant-gen({value})"

    def _answer(self, state: _GenState) -> int:
        return self.value


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------

class RunRecord(Record):
    """One learner execution: outputs per step plus convergence bookkeeping.

    converged_at is the 1-based step from which every recorded output is
    constant-and-correct (identification) or novel-and-member (generation),
    provided that stable tail is at least one stability window long.
    """

    _compared = ("learner", "stream", "steps", "stability_window", "target", "outputs",
                 "flags", "step_ok", "converged_at", "trace_rows")

    def __init__(self, learner: str, stream: str, steps: int, stability_window: int,
                 target: str | None, outputs: tuple, flags: tuple[tuple[str, ...], ...],
                 step_ok: tuple[bool, ...], converged_at: int | None,
                 trace_rows: tuple[dict, ...] = ()):
        self.__dict__.update(learner=learner, stream=stream, steps=steps,
                             stability_window=stability_window, target=target, outputs=outputs,
                             flags=flags, step_ok=step_ok, converged_at=converged_at,
                             trace_rows=trace_rows)

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    def final_output(self):
        return self.outputs[-1] if self.outputs else None


def run(
    learner: Learner,
    stream: Stream,
    steps: int,
    stability_window: int = 5,
    target: Hypothesis | None = None,
    collect_trace: bool = False,
) -> RunRecord:
    """Execute a learner on stream prefixes 1..steps.

    Identification: a step is `ok` when the output names the target (or,
    with no target given, matches the final output).  Generation: `ok` means
    the output exists, is unseen at that step, and lies in the target's
    support.  converged_at is the least N with all steps from N on ok and at
    least `stability_window` of them recorded.
    """
    if stability_window < 1 or steps < stability_window:
        raise ValueError("need steps >= stability_window >= 1")
    if learner.kind != stream.kind:
        raise ValueError(f"{learner.name} consumes {learner.kind}, stream is {stream.kind}")
    if target is None and len(stream.targets) == 1:
        target = stream.targets[0]

    outputs: list = []
    flags: list[tuple[str, ...]] = []
    step_ok: list[bool] = []
    trace_rows: list[dict] = []
    seen: set[int] = set()  # the examples shown so far, which only generators are judged on
    advance, read, is_default = learner.advance, learner.read, learner.is_default  # fixed per run
    generating = learner.role == GENERATOR
    holds = target.support.contains if target is not None else None
    shows = ITEM_RULES[stream.kind].shows
    state = learner.initial()
    for n, item in zip(range(1, steps + 1), stream.items()):
        state = advance(state, item)
        step_flags: tuple[str, ...] = ()
        try:
            output = read(state)
        except EmptySafeChoice as exc:
            output = None
            step_flags += (f"empty-safe-choice: {exc}",)
        if is_default(state):
            step_flags += ("default-output",)

        if generating:
            seen.update(shows(item))
            novel = member = output is not None
            if novel:
                novel, member = output not in seen, holds is None or holds(output)
                if not novel:
                    step_flags += ("novelty-violation",)
                if not member:
                    step_flags += ("misclassified",)
            step_ok.append(novel and member)
        elif target is not None:
            step_ok.append(output is not None and output.id == target.id)
        else:
            step_ok.append(output is not None)  # patched to stability below

        outputs.append(output)
        flags.append(step_flags)
        if collect_trace:
            trace_rows.append({"step": n, "output": _output_repr(output), **learner.trace(state)})

    if learner.role == IDENTIFIER and target is None:
        # no designated target: a step is stable when it matches the final guess
        final = _output_repr(outputs[-1]) if outputs else None
        step_ok = [
            output is not None and _output_repr(output) == final for output in outputs
        ]

    converged_at = _stable_tail_start(tuple(step_ok), stability_window)
    return RunRecord(
        learner=learner.name,
        stream=stream.provenance,
        steps=steps,
        stability_window=stability_window,
        target=target.id if target is not None else None,
        outputs=tuple(map(_output_repr, outputs)),
        flags=tuple(flags),
        step_ok=tuple(step_ok),
        converged_at=converged_at,
        trace_rows=tuple(trace_rows),
    )


def _output_repr(output):
    if output is None:
        return None
    if isinstance(output, Hypothesis):
        return output.id
    return output


def _stable_tail_start(step_ok: tuple[bool, ...], window: int) -> int | None:
    """One past the last failing step, provided at least `window` steps follow."""
    n = len(step_ok)
    last_failure = next((i for i in range(n, 0, -1) if not step_ok[i - 1]), 0)
    return last_failure + 1 if n - last_failure >= window else None
