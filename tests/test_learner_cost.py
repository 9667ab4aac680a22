"""Learner run cost, counted in operations, and replay of reused learners.

A run must do a bounded amount of work per step: one read, one closure per
distinct version space, one inner advance per text item outside the few
partner changes.  Learners and states keep caches, so these tests also check
that reusing a learner object, or branching from an old state, gives the
records and reads of a fresh computation.
"""

from __future__ import annotations

import pytest

import crosslimit.classes as classes
import crosslimit.learners as learners
from crosslimit.classes import (
    CoSingletonClass,
    Hypothesis,
    HypothesisClass,
    augmented_class,
    co_singleton_class,
    overlapping_cover_class,
    pinned_core_class,
    punctured_class,
    punctured_hole,
)
from crosslimit.closure import EdgeSet, closure_dimension, contrastive_closure, edge_version_space
from crosslimit.learners import (
    AbsenceCountIdentifier,
    ChainGenerator,
    ClosureGenerator,
    ConstantGenerator,
    EligibilityIdentifier,
    EventualCoreGenerator,
    IdentifyThenGenerate,
    SafeCoreGenerator,
    TextFromContrastiveIdentifier,
    compute_telltales,
    run,
)
from crosslimit.space import SymbolicSet
from crosslimit.streams import (
    Pair,
    canonical_contrastive,
    canonical_text,
    corrupt,
    sampled_contrastive,
    sampled_text,
    scripted_contrastive,
)

OVERLAP = overlapping_cover_class()
PINNED = pinned_core_class(4, (1, 6), (3,))
AUGMENTED = augmented_class(5)


def eligibility() -> EligibilityIdentifier:
    return EligibilityIdentifier(OVERLAP, compute_telltales(OVERLAP))


def counting(base: type, *args):
    """An instance of `base` that counts the calls to its public read."""

    class Counting(base):
        reads = 0

        def read(self, state):
            self.reads += 1
            return super().read(state)

    return Counting(*args)


GENERATORS = {
    "closure-gen": (lambda: counting(ClosureGenerator, PINNED, 2), PINNED.members[1]),
    "chain-gen": (
        lambda: counting(ChainGenerator, [OVERLAP], [closure_dimension(OVERLAP).dimension]),
        OVERLAP.members[2],
    ),
    "safe-core-gen": (lambda: counting(SafeCoreGenerator, AUGMENTED), AUGMENTED.members[2]),
    "eventual-core-gen": (
        lambda: counting(EventualCoreGenerator, lambda m: punctured_hole(m)),
        punctured_class(6).by_id("h3"),
    ),
    "identify-then-generate": (
        lambda: counting(IdentifyThenGenerate, eligibility()), OVERLAP.members[0]),
    "constant-gen": (lambda: counting(ConstantGenerator, 7), OVERLAP.members[2]),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_run_reads_each_state_once(name):
    make, target = GENERATORS[name]
    generator = make()
    run(generator, sampled_contrastive(target, seed=2, horizon=30), steps=60, target=target)
    assert generator.reads == 60


@pytest.mark.parametrize("make", [
    lambda cls: ClosureGenerator(cls, 2),
    lambda cls: SafeCoreGenerator(cls),
])
def test_one_closure_per_distinct_version_space(make, monkeypatch):
    # a fresh class, so that no meet memoised by another test hides a call
    cls = pinned_core_class(4, (1, 6), (3,))
    calls = []
    real = classes.PatternCells.meet  # the meet memo's miss path
    monkeypatch.setattr(classes.PatternCells, "meet",
                        lambda table, space: calls.append(space) or real(table, space))
    target = cls.members[1]
    script = list(sampled_contrastive(target, seed=4, horizon=30).prefix(12).items)
    stream = scripted_contrastive(target, script, tail="repeat")
    record = run(make(cls), stream, steps=200, target=target)
    assert record.converged
    spaces = {
        tuple(h.id for h in edge_version_space(cls, EdgeSet.of(script[:n])))
        for n in range(1, len(script) + 1)
    }
    assert 0 < len(calls) <= len(spaces)


def test_text_simulation_replays_only_when_the_partner_moves():
    class CountingEligibility(EligibilityIdentifier):
        advances = 0

        def advance(self, state, pair):
            self.advances += 1
            return super().advance(state, pair)

    inner = CountingEligibility(OVERLAP, compute_telltales(OVERLAP))
    target = OVERLAP.by_id("h2")
    zstar = target.support.complement().min_element()
    steps = 200
    record = run(TextFromContrastiveIdentifier(inner), canonical_text(target), steps, target=target)
    assert record.converged
    assert inner.advances <= steps * (zstar + 2)


def _cases():
    """(name, factory, [(target, stream), ...]): two targets, two streams each."""
    h1, h3 = OVERLAP.members[0], OVERLAP.members[2]
    p2, p4 = PINNED.members[1], PINNED.members[3]
    c3, c5 = co_singleton_class().member(3), co_singleton_class().member(5)
    contrastive = lambda h, seed: [
        (h, canonical_contrastive(h)), (h, sampled_contrastive(h, seed=seed, horizon=24))]
    return [
        ("closure-gen", lambda: ClosureGenerator(PINNED, 2), contrastive(p2, 1) + contrastive(p4, 2)),
        ("safe-core-gen", lambda: SafeCoreGenerator(PINNED), contrastive(p4, 3) + contrastive(p2, 4)),
        ("identify-then-generate", lambda: IdentifyThenGenerate(eligibility()),
         contrastive(h1, 5) + contrastive(h3, 6)),
        ("eligibility", eligibility, contrastive(h3, 7) + contrastive(h1, 8)),
        ("absence-count", AbsenceCountIdentifier,
         [(c3, corrupt(canonical_contrastive(c3), [(2, Pair.of(0, 1))])),
          (c3, canonical_contrastive(c3)), (c5, canonical_contrastive(c5)),
          (c5, corrupt(canonical_contrastive(c5), [(4, Pair.of(2, 7))]))]),
        ("synthetic-text", lambda: TextFromContrastiveIdentifier(eligibility()),
         [(h1, canonical_text(h1)), (h1, sampled_text(h1, seed=9)),
          (h3, canonical_text(h3)), (h3, sampled_text(h3, seed=10))]),
    ]


@pytest.mark.parametrize("reverse", [False, True])
def test_reused_learners_replay_fresh_records(reverse):
    cases = _cases()
    shared = {name: make() for name, make, _ in cases}
    first = {}
    for position in range(4):  # interleave: one run of every learner per round
        for name, make, plan in cases:
            target, stream = plan[3 - position if reverse else position]
            record = run(shared[name], stream, 40, target=target, collect_trace=True)
            assert record == run(make(), stream, 40, target=target, collect_trace=True), name
            first.setdefault(name, (record, target, stream))
    for name, _, _ in cases:
        record, target, stream = first[name]
        assert run(shared[name], stream, 40, target=target, collect_trace=True) == record


def _fold(learner, items, state=None):
    state = learner.initial() if state is None else state
    for item in items:
        state = learner.advance(state, item)
    return state


@pytest.mark.parametrize("name", ["closure-gen", "safe-core-gen", "identify-then-generate",
                                  "absence-count", "synthetic-text"])
def test_states_branch_like_fresh_folds(name):
    make, plan = next((make, plan) for n, make, plan in _cases() if n == name)
    (_, first), (_, second) = plan[0], plan[1]
    learner = make()
    common = first.prefix(10).items
    left, right = first.prefix(25).items[10:], second.prefix(25).items[10:]
    base = _fold(learner, common)
    # advance the same old state twice; the second branch must not see the first
    a = _fold(learner, left, base)
    b = _fold(learner, right, base)
    fresh = make()
    fresh_a, fresh_b = _fold(fresh, common + left), _fold(fresh, common + right)
    assert a == fresh_a and b == fresh_b
    assert hash(a) == hash(fresh_a)
    assert learner.read(a) == fresh.read(fresh_a) and learner.read(b) == fresh.read(fresh_b)
    assert learner.read(base) == fresh.read(_fold(fresh, common))
    assert learner.trace(base) == fresh.trace(_fold(fresh, common))


def test_empty_safe_choice_is_computed_once_per_step():
    class CountingSafeCore(SafeCoreGenerator):
        answers = 0

        def _answer(self, state):
            self.answers += 1
            return super()._answer(state)

    # finite supports: the safe set runs out after two outputs
    cls = HypothesisClass((Hypothesis("a", SymbolicSet.finite({1, 2, 3, 5})),
                           Hypothesis("b", SymbolicSet.finite({1, 2, 4}))))
    target = cls.members[0]
    generator = CountingSafeCore(cls)
    record = run(generator, canonical_contrastive(target), steps=40, target=target)
    raised = [step for step in record.flags if any(f.startswith("empty-safe-choice") for f in step)]
    assert len(raised) >= 30
    assert generator.answers == 40
    assert record == run(SafeCoreGenerator(cls), canonical_contrastive(target), steps=40,
                         target=target)


# ----------------------------------------------------------------------
# values a state carries instead of rebuilding them
# ----------------------------------------------------------------------

def test_absence_count_builds_a_guess_only_when_it_moves(monkeypatch):
    # the long-runs set-up: a co-singleton star with three early injections
    family = CoSingletonClass()
    target = family.member(17)
    stream = corrupt(canonical_contrastive(target),
                     [(4, Pair.of(2, 9)), (11, Pair.of(5, 30)), (23, Pair.of(1, 17))])
    learner = AbsenceCountIdentifier(family)
    steps, state, moves = 1600, learner.initial(), 0
    for pair in stream.prefix(steps).items:
        successor = learner.advance(state, pair)
        moves += successor.best != state.best
        state = successor
    calls = []
    real = CoSingletonClass.member
    monkeypatch.setattr(CoSingletonClass, "member", lambda self, s: calls.append(s) or real(self, s))
    record = run(learner, stream, steps, stability_window=20, target=target)
    assert record.converged and record.final_output() == "h17"
    assert 0 < len(calls) <= moves < 10


def test_identify_then_generate_makes_one_state_per_step(monkeypatch):
    generator = IdentifyThenGenerate(eligibility())
    state = generator.initial()
    made = []
    real = learners._GenState.__init__
    monkeypatch.setattr(learners._GenState, "__init__",
                        lambda self, *args, **kwargs: made.append(1) or real(self, *args, **kwargs))
    pairs = sampled_contrastive(OVERLAP.members[0], seed=3, horizon=30).prefix(50).items
    for pair in pairs:
        state = generator.advance(state, pair)
        generator.read(state)
    assert len(made) == len(pairs)


def test_canonical_closure_gen_run_walks_its_stream(monkeypatch):
    # a fresh class, so that no meet memoised by another test hides a closure
    cls = pinned_core_class(4, (1, 6), (3,))
    target, steps = cls.members[1], 400
    made, lookups, closures = [], [], []
    real_init, real_nth = learners._GenState.__init__, SymbolicSet.nth_member
    real_closure = learners.closure_of
    monkeypatch.setattr(learners._GenState, "__init__",
                        lambda self, *args: made.append(1) or real_init(self, *args))
    monkeypatch.setattr(SymbolicSet, "nth_member",
                        lambda self, i: lookups.append(i) or real_nth(self, i))
    monkeypatch.setattr(learners, "closure_of",
                        lambda *args: closures.append(args[1]) or real_closure(*args))
    stream = canonical_contrastive(target)  # built after the patch, so it holds the counter
    record = run(ClosureGenerator(cls, 2), stream, steps, target=target)
    assert record.converged
    assert lookups == [] and len(made) == steps + 1  # one state per step, and the first
    # a state carries its closure while its version space stays: a mask only
    # loses bits, so there are at most one more masks than members
    assert 0 < len(closures) == len(set(closures)) <= len(cls.members) + 1
    last = stream.prefix(steps).items[-1]  # the walk locates no item by its index
    zstar = target.support.complement().min_element()
    assert lookups == [] and last == Pair.of(target.support.nth_member(steps - 1), zstar)
    assert lookups == [steps - 1]  # while a lookup by index is counted


def test_a_punctured_closure_is_not_carried_past_a_new_edge():
    # past the truncation a new edge keeps the mask but moves the closure
    # over the infinite family, so a state may not pass it on
    cls = punctured_class(6)
    target = cls.by_id("h3")
    generator, state, moved = SafeCoreGenerator(cls), None, 0
    for pair in sampled_contrastive(target, seed=1, horizon=40).prefix(60).items:
        successor = generator.advance(state or generator.initial(), pair)
        closure = generator._closure(successor)
        assert closure == contrastive_closure(cls, EdgeSet.of(successor.edges))
        if state is not None and successor._masks == state._masks:
            moved += closure != generator._closure(state)
        state = successor
    assert moved > 0


def test_a_punctured_safe_core_run_builds_no_puncture(monkeypatch):
    # the closure is one pass over the edges, with no member tested against them
    cls = punctured_class(10)
    target = cls.by_id("h3")
    streams = (canonical_contrastive(target), sampled_contrastive(target, seed=1, horizon=40))
    built = []
    real = classes.PuncturedFamily.member
    monkeypatch.setattr(classes.PuncturedFamily, "member",
                        lambda self, hole: built.append(hole) or real(self, hole))
    for stream in streams:
        record = run(SafeCoreGenerator(cls), stream, 200, target=target)
        assert len(record.outputs) == 200 and built == []


def test_eligibility_recomputes_ready_only_when_seen_grows(monkeypatch):
    learner = eligibility()
    target = OVERLAP.members[2]
    stream = sampled_contrastive(target, seed=5, horizon=30)
    steps, state, growths = 200, learner.initial(), 0
    for pair in stream.prefix(steps).items:
        successor = learner.advance(state, pair)
        growths += successor.seen != state.seen
        state = successor
    calls = []
    real = EligibilityIdentifier._ready
    monkeypatch.setattr(EligibilityIdentifier, "_ready",
                        lambda self, seen: calls.append(seen) or real(self, seen))
    for inner in (learner, IdentifyThenGenerate(learner)):
        calls.clear()
        run(inner, stream, steps, target=target)
        assert 0 < len(calls) == growths < steps // 10
