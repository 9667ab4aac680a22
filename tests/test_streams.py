"""Streams: canonical schedules, corruption semantics, validity reports."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_sets
from crosslimit.classes import Hypothesis, co_singleton_class
from crosslimit.crossing import PatternCells, pair_cells, shared_presentation_family
from crosslimit.robust import defect
from crosslimit.space import SymbolicSet
from crosslimit.streams import (
    CONTRASTIVE,
    TEXT,
    Pair,
    Prefix,
    canonical_contrastive,
    canonical_informant,
    canonical_text,
    corrupt,
    crosses,
    format_prefix,
    paired_stream,
    parse_injection,
    parse_prefix,
    sampled_contrastive,
    sampled_text,
    scripted,
    scripted_contrastive,
    synthetic_contrastive_from_text,
    validate,
)

EVENS_H = Hypothesis("evens", SymbolicSet.residue_class(2, {0}))
H3 = co_singleton_class().member(3)


# ----------------------------------------------------------------------
# closed-form index rules: item t of each constructor's stream, the
# reference that the walks are checked against
# ----------------------------------------------------------------------

def _nth(support: SymbolicSet, i: int) -> int:
    """The support's i-th element (0-based) in ascending order, wrapping when finite."""
    if support.is_finite():
        elems = support.sorted_parts[1]
        return elems[i % len(elems)]
    return support.nth_member(i)


def paired_rule(elements, partner_of, head=()):
    def item(t):
        if t <= len(head):
            return head[t - 1]
        x = _nth(elements, t - len(head) - 1)
        return Pair.of(x, partner_of(x))
    return item


def canonical_contrastive_rule(h):
    zstar = h.support.complement().min_element()
    return paired_rule(h.support, lambda x: zstar)


def canonical_text_rule(h):
    return lambda t: _nth(h.support, t - 1)


def canonical_informant_rule(h):
    return lambda t: (t - 1, 1 if h.contains(t - 1) else 0)


def scripted_rule(items, tail_rule=None):
    def item(t):
        if t <= len(items):
            return items[t - 1]
        if tail_rule is None:
            return items[(t - 1) % len(items)]
        return tail_rule(t - len(items))
    return item


def sampled_contrastive_rule(h, seed, horizon):
    zstar = h.support.complement().min_element()
    positives = h.support.enumerate_below(horizon)
    negatives = h.support.complement().enumerate_below(horizon)

    def item(t):
        if t % 2 == 1:
            return Pair.of(_nth(h.support, (t - 1) // 2), zstar)
        # an empty side is not drawn from: a one-item stand-in would use random bits
        rng = random.Random(f"{seed}:{t}")
        x = rng.choice(positives) if positives else _nth(h.support, 0)
        z = rng.choice(negatives) if negatives else zstar
        return Pair.of(x, z)
    return item


def sampled_text_rule(h, seed, horizon):
    positives = h.support.enumerate_below(horizon)

    def item(t):
        if t % 2 == 1:
            return _nth(h.support, (t - 1) // 2)
        rng = random.Random(f"{seed}:{t}")
        return rng.choice(positives) if positives else _nth(h.support, 0)
    return item


def corrupt_rule(inner_rule, injections):
    table, ordered = dict(injections), sorted(t for t, _ in injections)
    return lambda t: table[t] if t in table else inner_rule(t - bisect_right(ordered, t))


def test_pair_is_unordered():
    assert Pair.of(4, 1) == Pair.of(1, 4)
    assert Pair.of(4, 1).elements() == (1, 4)
    with pytest.raises(ValueError):
        Pair.of(2, 2)


def test_pair_contract():
    a, b = Pair.of(7, 2), Pair.of(2, 7)
    assert a == b and hash(a) == hash(b)
    assert (a.lo, a.hi) == (2, 7) and str(a) == "{2,7}"
    for lo, hi in ((0, 0), (-1, 4), (5, 3)):
        message = rf"^pair needs two distinct naturals, got \({lo}, {hi}\)$"
        with pytest.raises(ValueError, match=message):
            Pair(lo, hi)
    with pytest.raises(ValueError, match="^pair needs two distinct elements, got 3 twice$"):
        Pair.of(3, 3)
    assert sorted([Pair.of(1, 9), Pair.of(0, 5), Pair.of(1, 2), Pair.of(0, 1)]) == [
        Pair.of(0, 1), Pair.of(0, 5), Pair.of(1, 2), Pair.of(1, 9)]
    with pytest.raises(AttributeError):
        a.lo = 5
    assert a.other(2) == 7 and a.other(7) == 2


def test_informant_corruption_rejects_a_pair():
    # a pair is a tuple of two naturals, but not an (example, label) item
    with pytest.raises(ValueError, match="informant streams carry"):
        corrupt(canonical_informant(H3), [(3, Pair.of(0, 1))])
    assert corrupt(canonical_informant(H3), [(3, (0, 1))]).item(3) == (0, 1)


def test_canonical_contrastive_cosingleton_is_star():
    stream = canonical_contrastive(H3)
    assert stream.prefix(4).items == (
        Pair.of(0, 3), Pair.of(1, 3), Pair.of(2, 3), Pair.of(4, 3),
    )


def test_canonical_contrastive_evens():
    stream = canonical_contrastive(EVENS_H)
    assert stream.prefix(3).items == (Pair.of(0, 1), Pair.of(2, 1), Pair.of(4, 1))


def test_canonical_contrastive_finite_support_repeats():
    h = Hypothesis("single", SymbolicSet.finite({5}))
    stream = canonical_contrastive(h)
    assert stream.prefix(3).items == (Pair.of(5, 0),) * 3


def test_canonical_text():
    assert canonical_text(EVENS_H).prefix(4).items == (0, 2, 4, 6)
    assert canonical_text(H3).prefix(5).items == (0, 1, 2, 4, 5)


def test_canonical_informant():
    assert canonical_informant(EVENS_H).prefix(3).items == ((0, 1), (1, 0), (2, 1))


def test_corrupt_replaces_and_reemits():
    stream = corrupt(canonical_contrastive(H3), [(3, Pair.of(0, 4))])
    assert stream.prefix(6).items == (
        Pair.of(3, 0), Pair.of(3, 1), Pair.of(0, 4),
        Pair.of(3, 2), Pair.of(3, 4), Pair.of(3, 5),
    )


def test_corrupt_without_injections_is_identity():
    inner = canonical_contrastive(H3)
    assert corrupt(inner, []).prefix(8).items == inner.prefix(8).items


def test_corrupt_rejects_duplicates_and_bad_items():
    inner = canonical_contrastive(H3)
    with pytest.raises(ValueError):
        corrupt(inner, [(2, Pair.of(0, 4)), (2, Pair.of(1, 4))])
    with pytest.raises(ValueError):
        corrupt(inner, [(2, 7)])
    with pytest.raises(ValueError):
        corrupt(canonical_text(H3), [(2, Pair.of(0, 4))])


def test_corrupted_text_realizes_full_enumeration():
    # Injecting the hole itself into a co-singleton text gives the plain
    # enumeration of X as a one-corrupted text.
    stream = corrupt(canonical_text(H3), [(4, 3)])
    assert stream.prefix(6).items == (0, 1, 2, 3, 4, 5)
    report = validate(stream.prefix(12), H3, horizon=10)
    assert report.xor_violations == (4,)
    assert report.budget_ok(1)


def test_validate_flags_corrupted_pair():
    stream = corrupt(canonical_contrastive(H3), [(3, Pair.of(0, 4))])
    report = validate(stream.prefix(6), H3, horizon=6)
    assert report.xor_violations == (3,)
    assert report.budget_ok(1) and not report.budget_ok(0)


def test_validate_clean_canonical():
    for h in (H3, EVENS_H):
        report = validate(canonical_contrastive(h).prefix(12), h, horizon=10)
        assert report.clean


def test_validate_budget_matches_injection_count():
    injections = [(2, Pair.of(0, 2)), (5, Pair.of(0, 4)), (9, Pair.of(1, 5))]
    stream = corrupt(canonical_contrastive(H3), injections)
    report = validate(stream.prefix(20), H3, horizon=12)
    assert len(report.xor_violations) == 3
    assert report.budget_ok(3)


def test_coverage_deficit_shrinks_to_empty():
    stream = canonical_contrastive(EVENS_H)
    early = validate(stream.prefix(3), EVENS_H, horizon=16)
    assert not early.coverage_deficit.is_empty()
    late = validate(stream.prefix(8), EVENS_H, horizon=16)
    assert late.coverage_deficit.is_empty()


def test_validate_informant_labels():
    stream = canonical_informant(EVENS_H)
    report = validate(stream.prefix(6), EVENS_H, horizon=6)
    assert report.clean and report.coverage_deficit.is_empty()
    flipped = corrupt(stream, [(2, (1, 1))])
    assert validate(flipped.prefix(6), EVENS_H, horizon=6).xor_violations == (2,)


def test_synthetic_pairs_least_unseen():
    assert synthetic_contrastive_from_text(Prefix(TEXT, (0, 2, 4))).items == (
        Pair.of(0, 1), Pair.of(2, 1), Pair.of(4, 1),
    )
    assert synthetic_contrastive_from_text(Prefix(TEXT, (0, 1, 2))).items == (
        Pair.of(0, 3), Pair.of(1, 3), Pair.of(2, 3),
    )


def test_synthetic_partner_stabilizes():
    text = canonical_text(EVENS_H)
    zstar = 1
    fixed = canonical_contrastive(EVENS_H)
    # Once every example below z* has been shown, the synthetic prefix must
    # equal the prefix of the one fixed stream pairing positives with z*.
    stabilization = None
    for n in range(1, 12):
        synth = synthetic_contrastive_from_text(text.prefix(n))
        if synth.items == fixed.prefix(n).items:
            stabilization = stabilization or n
        else:
            stabilization = None
    assert stabilization == 1  # evens show 0 first, so z_n = 1 immediately


def test_scripted_contrastive_checks_crossing():
    with pytest.raises(ValueError):
        scripted_contrastive(EVENS_H, [Pair.of(0, 2)])
    stream = scripted_contrastive(EVENS_H, [Pair.of(6, 3)], tail="canonical")
    assert stream.prefix(3).items == (Pair.of(6, 3), Pair.of(0, 1), Pair.of(2, 1))


def test_sampled_contrastive_is_valid_and_deterministic():
    for seed in range(5):
        stream = sampled_contrastive(EVENS_H, seed=seed, horizon=24)
        prefix = stream.prefix(40)
        report = validate(prefix, EVENS_H, horizon=20)
        assert report.clean
        assert report.coverage_deficit.is_empty()
        again = sampled_contrastive(EVENS_H, seed=seed, horizon=24)
        assert again.prefix(40).items == prefix.items
        # index-addressable: item(t) agrees with the materialized prefix
        assert all(stream.item(t) == prefix.items[t - 1] for t in (1, 7, 40))


def test_prefix_serialization_round_trip():
    ctr = canonical_contrastive(H3).prefix(4)
    assert parse_prefix(format_prefix(ctr), CONTRASTIVE) == ctr
    txt = canonical_text(EVENS_H).prefix(4)
    assert parse_prefix(format_prefix(txt), TEXT) == txt
    inf = canonical_informant(EVENS_H).prefix(4)
    assert parse_prefix(format_prefix(inf), "informant") == inf


def test_parse_injection():
    assert parse_injection("3:{0,4}", CONTRASTIVE) == (3, Pair.of(0, 4))
    assert parse_injection("2:9", TEXT) == (2, 9)
    assert parse_injection("1:5,0", "informant") == (1, (5, 0))
    with pytest.raises(ValueError):
        parse_injection("{0,4}", CONTRASTIVE)


def test_crosses_matches_membership_xor():
    assert crosses(EVENS_H, Pair.of(0, 1))
    assert not crosses(EVENS_H, Pair.of(0, 2))
    assert not crosses(EVENS_H, Pair.of(1, 3))


def test_stream_items_do_not_depend_on_access_order():
    streams = [
        canonical_contrastive(H3),
        sampled_contrastive(EVENS_H, seed=4),
        sampled_text(H3, seed=9),
        corrupt(canonical_text(EVENS_H), [(2, 7), (5, 9)]),
        scripted_contrastive(H3, [Pair.of(0, 3), Pair.of(3, 8)], tail="repeat"),
    ]
    order = list(range(1, 61))
    random.Random(3).shuffle(order)
    for stream in streams:
        forward = list(itertools.islice(stream.items(), 60))
        assert {t: stream.item(t) for t in order} == dict(enumerate(forward, 1))
        assert stream.prefix(60).items == tuple(forward)


@settings(max_examples=300, deadline=None)
@given(small_sets(), small_sets(), st.integers(0, 40), st.integers(1, 90), st.data())
def test_walks_play_the_index_rule(support, other, horizon, n, data):
    # finite supports here have at most three elements, so n wraps them many times
    h, g = Hypothesis("h", support), Hypothesis("g", other)
    seed = data.draw(st.integers(-5, 5))
    at = data.draw(st.lists(st.integers(1, 30), unique=True, max_size=4))
    cases = [(canonical_informant(h), canonical_informant_rule(h))]
    if not support.is_empty():
        text, text_rule = canonical_text(h), canonical_text_rule(h)
        bad = [(t, t + 100) for t in at]
        cases += [(text, text_rule),
                  (sampled_text(h, seed, horizon), sampled_text_rule(h, seed, horizon)),
                  (corrupt(text, bad), corrupt_rule(text_rule, bad)),
                  (scripted(TEXT, [5, 1, 5]), scripted_rule([5, 1, 5])),
                  (scripted(TEXT, [2], tail=text), scripted_rule([2], text_rule))]
    if h.is_proper_nontrivial():
        pairs, pairs_rule = canonical_contrastive(h), canonical_contrastive_rule(h)
        sampled_rule = sampled_contrastive_rule(h, seed, horizon)
        script = [pairs_rule(t) for t in (1, 2, 3)]
        bad, worse = [(t, Pair.of(t, 200)) for t in at], [(t, Pair.of(0, t)) for t in at]
        cases += [(pairs, pairs_rule),
                  (sampled_contrastive(h, seed, horizon), sampled_rule),
                  (corrupt(pairs, bad), corrupt_rule(pairs_rule, bad)),
                  (corrupt(sampled_contrastive(h, seed, horizon), worse),
                   corrupt_rule(sampled_rule, worse)),
                  (scripted_contrastive(h, script, tail="canonical"),
                   scripted_rule(script, pairs_rule)),
                  (scripted_contrastive(h, script, tail="repeat"), scripted_rule(script))]
        if g.is_proper_nontrivial() and other != support:
            report = defect(h, g)  # a paired stream with a head of defect pairs
            if report.min_violation_stream is not None:
                cells, z = pair_cells(h, g), h.support.complement().min_element()
                head = tuple(Pair.of(x, z) for x in sorted(report.defect_set.plus))
                rule = paired_rule(support.difference(report.defect_set), cells.partner, head)
                cases.append((report.min_violation_stream, rule))
            shared = shared_presentation_family([h, g])
            if shared is not None:
                cells = PatternCells.of((h, g))
                union = cells.union(cells.held(cells.full))  # of the two supports
                cases.append((shared, paired_rule(union, cells.partner)))
    for stream, rule in cases:
        walked = list(itertools.islice(stream.items(), n))
        indexed = [rule(t) for t in range(1, n + 1)]
        assert walked == indexed, stream.provenance
        assert list(map(type, walked)) == list(map(type, indexed))  # a Pair is never a tuple
        assert stream.prefix(n).items == tuple(walked)


def test_constructors_fail_when_built():
    empty = Hypothesis("e", SymbolicSet.empty())
    everything = Hypothesis("x", SymbolicSet.universe())
    for h in (empty, everything):
        for build in (canonical_contrastive, lambda h: sampled_contrastive(h, 0)):
            with pytest.raises(ValueError, match="is not proper nontrivial"):
                build(h)
    for build in (lambda: canonical_text(empty), lambda: sampled_text(empty, 0)):
        with pytest.raises(ValueError, match="has empty support, no text exists"):
            build()
    with pytest.raises(ValueError, match="^cannot enumerate an empty support$"):
        paired_stream(SymbolicSet.empty(), lambda x: x + 1, "p", ())
    with pytest.raises(ValueError, match="^scripted stream needs items or a tail$"):
        scripted(TEXT, [])
    with pytest.raises(ValueError, match="does not match"):
        scripted(CONTRASTIVE, [Pair.of(0, 1)], tail=canonical_text(H3))
    with pytest.raises(ValueError, match="^injection indices are 1-based$"):
        corrupt(canonical_text(H3), [(0, 5)])
    with pytest.raises(ValueError, match="^stream indices are 1-based$"):
        canonical_text(H3).item(0)
