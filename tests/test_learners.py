"""Learners: tell-tales, identifiers, generators, run records."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_sets
from crosslimit.classes import (
    Hypothesis,
    HypothesisClass,
    augmented_class,
    co_singleton_class,
    disjoint_support_class,
    overlapping_cover_class,
    pinned_core_class,
    punctured_class,
    punctured_hole,
)
from crosslimit.closure import EdgeSet, closure_dimension, edge_version_space
from crosslimit.crossing import shared_presentation_pair
from crosslimit.learners import (
    AbsenceCountIdentifier,
    ChainGenerator,
    ClosureGenerator,
    ConstantGenerator,
    EligibilityIdentifier,
    EventualCoreGenerator,
    GoldInformantIdentifier,
    IdentifyThenGenerate,
    MISCLASSIFICATION,
    NOVELTY_VIOLATION,
    SafeCoreGenerator,
    TextFromContrastiveIdentifier,
    _stable_tail_start,
    compute_telltales,
    generator_breaker,
    run,
    telltales_sound,
)
from crosslimit.space import SymbolicSet
from crosslimit.streams import (
    Pair,
    canonical_contrastive,
    canonical_informant,
    canonical_text,
    corrupt,
    sampled_contrastive,
)

OVERLAP = overlapping_cover_class()


def overlap_identifier() -> EligibilityIdentifier:
    return EligibilityIdentifier(OVERLAP, compute_telltales(OVERLAP))


def test_telltales_cosingleton_slice_empty():
    cls = co_singleton_class().explicit_slice(4)
    family = compute_telltales(cls)
    assert all(not family.of(hid) for hid in cls.ids())
    assert telltales_sound(cls, family)


def test_telltales_punctured_grow_with_truncation():
    for m in (3, 6):
        cls = punctured_class(m)
        family = compute_telltales(cls)
        assert family.of("h_inf") == frozenset(punctured_hole(i) for i in range(1, m + 1))
        assert telltales_sound(cls, family)


def test_telltales_overlap_class():
    family = compute_telltales(OVERLAP)
    assert family.of("h1") == frozenset()
    assert family.of("h2") == frozenset()
    # h2 is NOT below h3 (5 sits in supp(h2) but not in supp(h3)), so only
    # the strict subset h1 contributes a witness
    assert family.of("h3") == frozenset({3})
    assert telltales_sound(OVERLAP, family)


def test_eligibility_converges_on_single_member_class():
    cls = HypothesisClass((Hypothesis("only", SymbolicSet.residue_class(2, {0})),))
    learner = EligibilityIdentifier(cls, compute_telltales(cls))
    record = run(learner, canonical_contrastive(cls.members[0]), steps=6, stability_window=3)
    assert record.converged_at == 1


def test_eligibility_converges_on_overlap_class():
    for target in OVERLAP.members:
        record = run(
            overlap_identifier(), canonical_contrastive(target),
            steps=30, stability_window=5, target=target,
        )
        assert record.converged, target.id
        assert record.final_output() == target.id
    for seed in range(4):
        for target in OVERLAP.members:
            record = run(
                overlap_identifier(), sampled_contrastive(target, seed=seed, horizon=24),
                steps=40, stability_window=5, target=target,
            )
            assert record.converged, (seed, target.id)


def test_eligibility_cannot_split_disjoint_pair_on_shared_stream():
    cls = disjoint_support_class()
    learner = EligibilityIdentifier(cls, compute_telltales(cls))
    stream = shared_presentation_pair(*cls.members)
    low = run(learner, stream, steps=30, stability_window=5, target=cls.members[0])
    high = run(learner, stream, steps=30, stability_window=5, target=cls.members[1])
    assert low.outputs == high.outputs  # one fixed answer for both targets
    assert low.converged and low.final_output() == "hA"
    assert not high.converged


def test_eligibility_never_admits_strict_superset():
    # h1's support is strictly below h3's: on valid prefixes for h1 the
    # hypothesis h3 must never become eligible (its tell-tale cannot appear).
    learner = overlap_identifier()
    target = OVERLAP.by_id("h1")
    state = learner.initial()
    for pair in canonical_contrastive(target).prefix(40).items:
        state = learner.advance(state, pair)
        assert "h3" not in [h.id for h in learner.eligible(state)]


def test_text_identifier_from_contrastive():
    for target in OVERLAP.members:
        learner = TextFromContrastiveIdentifier(overlap_identifier())
        record = run(
            learner, canonical_text(target), steps=30, stability_window=5, target=target
        )
        assert record.converged, target.id


def test_text_identifier_partner_stabilizes_to_least_nonpositive():
    learner = TextFromContrastiveIdentifier(overlap_identifier())
    target = OVERLAP.by_id("h2")  # odds + {0}: least non-positive is 2
    state = learner.initial()
    partners = []
    for item in canonical_text(target).prefix(12).items:
        state = learner.advance(state, item)
        partners.append(learner.current_partner(state))
    assert partners[-1] == 2
    stable_from = partners.index(2)
    assert all(z == 2 for z in partners[stable_from:])


def example_trace_stream():
    return corrupt(canonical_contrastive(co_singleton_class().member(3)), [(3, Pair.of(0, 4))])


def test_absence_count_trace_prefix():
    learner = AbsenceCountIdentifier()
    state = learner.initial()
    for pair in example_trace_stream().prefix(6).items:
        state = learner.advance(state, pair)
    assert learner.absence_counts(state) == {0: 4, 1: 5, 2: 5, 3: 1, 4: 4, 5: 5}
    assert learner.read(state).id == "h3"


def test_absence_count_clean_stream_converges_at_once():
    # target h0: no tie at step 1, so convergence is immediate
    target = co_singleton_class().member(0)
    record = run(
        AbsenceCountIdentifier(), canonical_contrastive(target),
        steps=20, stability_window=5, target=target,
    )
    assert record.converged_at == 1
    # other targets tie with the first partner at step 1 and settle at step 2
    target7 = co_singleton_class().member(7)
    record7 = run(
        AbsenceCountIdentifier(), canonical_contrastive(target7),
        steps=20, stability_window=5, target=target7,
    )
    assert record7.converged_at == 2


def test_absence_count_bounded_at_target_under_corruption():
    target = co_singleton_class().member(3)
    injections = [(4, Pair.of(0, 4)), (9, Pair.of(1, 5)), (15, Pair.of(2, 6))]
    stream = corrupt(canonical_contrastive(target), injections)
    learner = AbsenceCountIdentifier()
    state = learner.initial()
    for n, pair in enumerate(stream.prefix(60).items, 1):
        state = learner.advance(state, pair)
        counts = learner.absence_counts(state)
        assert counts[3] <= len(injections)
        if n >= 20:
            assert all(counts[t] > counts[3] for t in counts if t != 3)
    record = run(learner, stream, steps=60, stability_window=10, target=target)
    assert record.converged and record.final_output() == "h3"


def test_gold_informant_identifier():
    cls = disjoint_support_class()
    for target in cls.members:
        record = run(
            GoldInformantIdentifier(cls), canonical_informant(target),
            steps=10, stability_window=3, target=target,
        )
        assert record.converged_at == 1  # members disagree already at 0
    aug = augmented_class(4)
    for target in aug.members:
        record = run(
            GoldInformantIdentifier(aug), canonical_informant(target),
            steps=30, stability_window=5, target=target,
        )
        assert record.converged, target.id


def test_closure_generator_correct_past_dimension():
    cls = pinned_core_class(3, (0,), (1,))
    report = closure_dimension(cls)
    assert report.dimension == 1
    learner = ClosureGenerator(cls, report.dimension)
    for target in cls.members:
        for seed in range(3):
            record = run(
                learner, sampled_contrastive(target, seed=seed, horizon=21),
                steps=30, stability_window=5, target=target,
            )
            # distinct edges exceed d quickly; from there on every output is
            # a certified novel positive
            state = learner.initial()
            for n, pair in enumerate(
                sampled_contrastive(target, seed=seed, horizon=21).prefix(30).items, 1
            ):
                state = learner.advance(state, pair)
                if len(state.edges) > report.dimension:
                    out = learner.read(state)
                    assert target.contains(out)
                    assert out not in state.edges
            assert record.converged


def test_generator_breaker_defeats_generators_at_dimension():
    cls = pinned_core_class(3, (0,), (1,))
    report = closure_dimension(cls)
    witness = report.witness
    broken = generator_breaker(cls, ClosureGenerator(cls, report.dimension), witness)
    assert broken.kind in (NOVELTY_VIOLATION, MISCLASSIFICATION)
    constant = generator_breaker(cls, ConstantGenerator(5), witness)
    assert constant.kind == MISCLASSIFICATION
    assert constant.hypothesis is not None and not constant.hypothesis.contains(5)
    inside = generator_breaker(cls, ConstantGenerator(0), witness)
    assert inside.kind == NOVELTY_VIOLATION


def test_generator_breaker_requires_hollow():
    cls = pinned_core_class(3, (0,), (1,))
    with pytest.raises(ValueError):
        generator_breaker(cls, ConstantGenerator(0), EdgeSet.of([Pair.of(2, 3)]))


def test_generator_breaker_on_punctured_ladder():
    cls = punctured_class(6)
    ladder = EdgeSet.of(Pair.of(punctured_hole(i), 1) for i in range(1, 4))
    broken = generator_breaker(cls, ConstantGenerator(8), ladder)
    # 8 is a base element whose own puncture survives the ladder
    assert broken.kind == MISCLASSIFICATION
    assert not broken.hypothesis.contains(8)


def test_chain_generator_on_punctured_levels():
    full = punctured_class(5)
    levels = [HypothesisClass(full.members[: m + 1]) for m in range(1, 6)]
    dims = []
    for level in levels:
        report = closure_dimension(level)
        assert report.outcome == "exact" and report.dimension == 0
        dims.append(report.dimension)
    learner = ChainGenerator(levels, dims)
    for hid in ("h_inf", "h2", "h4"):
        target = full.by_id(hid)
        record = run(
            learner, canonical_contrastive(target),
            steps=40, stability_window=5, target=target,
        )
        assert record.converged, hid


def test_single_level_chain_matches_thresholded_closure_generator():
    cls = pinned_core_class(3, (0,), (1,))
    dim = closure_dimension(cls).dimension
    chain = ChainGenerator([cls], [dim])
    threshold = 1 + dim + 1
    plain = ClosureGenerator(cls, dim)
    target = cls.members[1]
    stream = sampled_contrastive(target, seed=5, horizon=21)
    chain_state, plain_state = chain.initial(), plain.initial()
    for pair in stream.prefix(20).items:
        chain_state = chain.advance(chain_state, pair)
        plain_state = plain.advance(plain_state, pair)
        if len(chain_state.edges) >= threshold:
            assert chain.read(chain_state) == plain.read(plain_state)

    # ClosureGenerator(cls, d) is ChainGenerator([cls], [d - 1]): both arm at d + 1 edges
    for level in (cls, pinned_core_class(4, (1, 6), (3,))):
        items = sampled_contrastive(level.members[1], seed=5, horizon=21).prefix(20).items
        for d in range(1, 5):
            chain, plain = ChainGenerator([level], [d - 1]), ClosureGenerator(level, d)
            chain_state, plain_state = chain.initial(), plain.initial()
            for pair in items:
                chain_state = chain.advance(chain_state, pair)
                plain_state = plain.advance(plain_state, pair)
                armed = len(plain_state.edges) >= d + 1
                assert plain.trace(plain_state)["armed"] == armed
                assert plain.read(plain_state) == chain.read(chain_state)
                if not armed:
                    assert plain.read(plain_state) == 0
            assert armed


def test_chain_generator_rejects_non_monotone_chain():
    full = punctured_class(4)
    good = HypothesisClass(full.members[:2])
    other = HypothesisClass(full.members[2:])
    with pytest.raises(ValueError):
        ChainGenerator([good, other], [0, 0])


def test_safe_core_generator_on_augmented():
    cls = augmented_class(5)
    learner = SafeCoreGenerator(cls)
    base = cls.by_id("h_inf").support
    assert learner.read(learner.initial()) == base.min_element()
    for target in cls.members[:3]:
        record = run(
            learner, sampled_contrastive(target, seed=11, horizon=30),
            steps=30, stability_window=5, target=target,
        )
        assert record.converged_at == 1  # every output certified from the start
        assert all(base.contains(x) for x in record.outputs)


def test_safe_core_generator_breaks_on_disjoint_shared_stream():
    cls = disjoint_support_class()
    learner = SafeCoreGenerator(cls)
    stream = shared_presentation_pair(*cls.members)
    record = run(learner, stream, steps=10, stability_window=3, target=cls.members[0])
    assert any("empty-safe-choice" in " ".join(f) for f in record.flags)
    assert not record.converged


def test_eventual_core_generator_on_punctured():
    cls = punctured_class(8)
    core = lambda m: punctured_hole(m)
    for hid in ("h_inf", "h1", "h4"):
        target = cls.by_id(hid)
        learner = EventualCoreGenerator(core)
        record = run(
            learner, canonical_contrastive(target),
            steps=40, stability_window=5, target=target,
        )
        assert record.converged, hid


def test_eventual_core_inside_all_supports():
    cls = augmented_class(4)
    base = cls.by_id("h_inf").support
    learner = EventualCoreGenerator(lambda m: base.nth_member(m - 1))
    target = cls.by_id("h2")
    record = run(
        learner, canonical_contrastive(target), steps=20, stability_window=5, target=target
    )
    assert record.converged_at == 1


def test_identify_then_generate_with_absence_count():
    target = co_singleton_class().member(4)
    stream = corrupt(
        canonical_contrastive(target), [(2, Pair.of(0, 5)), (7, Pair.of(1, 6))]
    )
    learner = IdentifyThenGenerate(AbsenceCountIdentifier())
    record = run(learner, stream, steps=50, stability_window=10, target=target)
    assert record.converged


def test_identify_then_generate_with_eligibility():
    target = OVERLAP.by_id("h2")
    learner = IdentifyThenGenerate(overlap_identifier())
    record = run(
        learner, canonical_contrastive(target), steps=30, stability_window=5, target=target
    )
    assert record.converged


def test_run_is_deterministic_and_checks_kinds():
    target = co_singleton_class().member(2)
    stream = canonical_contrastive(target)
    first = run(AbsenceCountIdentifier(), stream, steps=15, stability_window=4)
    second = run(AbsenceCountIdentifier(), stream, steps=15, stability_window=4)
    assert first == second
    with pytest.raises(ValueError):
        run(AbsenceCountIdentifier(), canonical_text(target), steps=5, stability_window=2)
    with pytest.raises(ValueError):
        run(AbsenceCountIdentifier(), stream, steps=2, stability_window=5)


def test_run_trace_rows():
    target = co_singleton_class().member(1)
    record = run(
        AbsenceCountIdentifier(), canonical_contrastive(target),
        steps=6, stability_window=2, collect_trace=True,
    )
    assert len(record.trace_rows) == 6
    assert record.trace_rows[0]["step"] == 1
    assert "absence_counts" in record.trace_rows[0]


@given(st.lists(st.booleans(), max_size=30), st.integers(min_value=1, max_value=8))
def test_stable_tail_start_is_its_literal_definition(step_ok, window):
    # the least N with every step from N on ok and at least `window` steps from N on
    n = len(step_ok)
    least = next(
        (start for start in range(1, n + 1) if all(step_ok[start - 1:]) and n - start + 1 >= window),
        None,
    )
    assert _stable_tail_start(tuple(step_ok), window) == least


# ----------------------------------------------------------------------
# the eligibility rule against its literal definition
# ----------------------------------------------------------------------

small_classes = st.lists(small_sets(), min_size=1, max_size=6).map(
    lambda supports: HypothesisClass(
        tuple(Hypothesis(f"h{i}", s) for i, s in enumerate(supports))))
pair_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda t: t[0] != t[1])
    .map(lambda t: Pair.of(*t)), max_size=25)


def _eligible_by_definition(cls, telltales, pairs) -> list[Hypothesis]:
    """Members crossed by every pair whose tell-tale lies in the elements seen."""
    seen = {x for pair in pairs for x in pair.elements()}
    return [h for h in edge_version_space(cls, EdgeSet.of(pairs)) if telltales.of(h.id) <= seen]


@settings(max_examples=150, deadline=None)
@given(small_classes, pair_lists)
def test_eligibility_reads_are_their_literal_definition(cls, pairs):
    telltales = compute_telltales(cls)
    learner = EligibilityIdentifier(cls, telltales)
    wrapped = IdentifyThenGenerate(EligibilityIdentifier(cls, telltales))
    state, outer = learner.initial(), wrapped.initial()
    for n in range(len(pairs) + 1):
        if n:
            state = learner.advance(state, pairs[n - 1])
            outer = wrapped.advance(outer, pairs[n - 1])
        eligible = _eligible_by_definition(cls, telltales, pairs[:n])
        guess = eligible[0] if eligible else cls.members[0]
        trace = {"eligible": [h.id for h in eligible]}
        assert learner.read(state) == guess
        assert learner.is_default(state) == (not eligible)
        assert learner.trace(state) == trace
        assert wrapped.is_default(outer) == (not eligible)
        assert wrapped.trace(outer) == {"guess": guess.id, **trace}


@settings(max_examples=100, deadline=None)
@given(small_classes, st.lists(st.integers(0, 20), max_size=25))
def test_text_simulation_reads_the_literal_eligibility(cls, items):
    telltales = compute_telltales(cls)
    learner = TextFromContrastiveIdentifier(EligibilityIdentifier(cls, telltales))
    state = learner.initial()
    for n, item in enumerate(items, 1):
        state = learner.advance(state, item)
        z = min(set(range(n + 1)) - set(items[:n]))  # the least example not in the text
        eligible = _eligible_by_definition(cls, telltales, [Pair.of(x, z) for x in items[:n]])
        assert learner.current_partner(state) == z
        assert learner.read(state) == (eligible[0] if eligible else cls.members[0])
        assert learner.inner.is_default(state[2]) == (not eligible)
