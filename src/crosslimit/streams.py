"""Lazy presentation streams, coverage schedules, corruption, validation.

Three presentation kinds feed the learners:

* text: positives of the target, covering its support in the limit;
* informant: all of X with true labels;
* contrastive: unordered pairs whose endpoints disagree under the target
  (each pair crosses the support/complement cut), covering every positive.

A stream is an immutable description whose items are its walk: learners see
a presentation only as a prefix, one observation per round, and `items()`
and `prefix()` play the walk from its start at O(1) amortised per item.  A
walk cycles a finite support's sorted elements and steps through an
infinite one with `SymbolicSet.members()`.  `item(t)` plays the walk up to
the 1-based index t, so it costs O(t).  Every walk is a pure function of the
stream's description, so adversarial experiments replay bit-for-bit: each
even item of a sampled stream is drawn from a generator seeded by the
stream's seed and the item's index.  Corruption is replacement at scripted
indices: the displaced honest item is re-emitted at the next free index,
which keeps coverage intact while adding exactly the scripted bad items.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from typing import Callable, Iterator

from .classes import Hypothesis, require_proper
from .space import Record, SymbolicSet

TEXT = "text"
INFORMANT = "informant"
CONTRASTIVE = "contrastive"
KINDS = (TEXT, INFORMANT, CONTRASTIVE)


class Pair(namedtuple("Pair", "lo hi")):
    """An unordered two-element observation, stored with lo < hi: a tuple, so
    hashing and ordering run in C (never compared with a plain tuple)."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> "Pair":
        if not (0 <= lo < hi):
            raise ValueError(f"pair needs two distinct naturals, got ({lo}, {hi})")
        return tuple.__new__(cls, (lo, hi))

    @staticmethod
    def of(x: int, y: int) -> "Pair":
        if x == y:
            raise ValueError(f"pair needs two distinct elements, got {x} twice")
        lo, hi = (x, y) if x < y else (y, x)
        if lo < 0:
            raise ValueError(f"pair needs two distinct naturals, got ({lo}, {hi})")
        return tuple.__new__(Pair, (lo, hi))

    def elements(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def other(self, x: int) -> int:
        if x == self.lo:
            return self.hi
        if x == self.hi:
            return self.lo
        raise ValueError(f"{x} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{{{self.lo},{self.hi}}}"


def crosses(h: Hypothesis, pair: Pair) -> bool:
    """Exactly one endpoint is a positive of h."""
    return h.contains(pair.lo) != h.contains(pair.hi)


class Prefix(Record):
    """A finite initial segment of a presentation, in observation order."""

    _compared = ("kind", "items")

    def __init__(self, kind: str, items: tuple):
        if kind not in KINDS:
            raise ValueError(f"unknown prefix kind {kind!r}")
        self.__dict__.update(kind=kind, items=items)

    def __len__(self) -> int:
        return len(self.items)

    def seen(self) -> frozenset[int]:
        """All example-space elements observed in the prefix."""
        out: set[int] = set()
        for item in self.items:
            if self.kind == CONTRASTIVE:
                out.update(item.elements())
            elif self.kind == INFORMANT:
                out.add(item[0])
            else:
                out.add(item)
        return frozenset(out)


class Stream(Record):
    """An immutable presentation: kind, provenance, and a walk that yields its
    items in order, O(1) amortised each.  The stream is its walk: item t is
    the walk's t-th item, found in O(t)."""

    _compared = ("kind", "provenance", "walk", "targets")
    _shown = ("kind", "provenance", "targets")

    def __init__(self, kind: str, provenance: str, walk: Callable[[], Iterator],
                 targets: tuple[Hypothesis, ...] = ()):
        self.__dict__.update(kind=kind, provenance=provenance, walk=walk, targets=targets)

    def item(self, t: int):
        if t < 1:
            raise ValueError("stream indices are 1-based")
        return next(itertools.islice(self.walk(), t - 1, None))

    def items(self) -> Iterator:
        yield from self.walk()

    def prefix(self, n: int) -> Prefix:
        return Prefix(self.kind, tuple(itertools.islice(self.walk(), n)))


# ----------------------------------------------------------------------
# canonical streams
# ----------------------------------------------------------------------

def _support_walk(support: SymbolicSet) -> Callable[[], Iterator[int]]:
    """Ascending enumeration of a support, wrapping when finite."""
    if support.is_finite():
        elems = support.sorted_parts[1]
        if not elems:
            raise ValueError("cannot enumerate an empty support")
        return lambda: itertools.cycle(elems)
    return support.members


def canonical_contrastive(h: Hypothesis) -> Stream:
    """Pair the ascending support enumeration with the least non-positive.

    Every emitted pair crosses h and the positive side is covered in the
    limit (finite supports wrap around).  The fixed partner z* is the least
    element outside the support.
    """
    require_proper(h)
    zstar = h.support.complement().min_element()
    return paired_stream(h.support, lambda x: zstar, f"canonical-contrastive({h.id})", (h,))


def paired_stream(elements: SymbolicSet, partner_of: Callable[[int], int], provenance: str,
                  targets: tuple[Hypothesis, ...], head: tuple[Pair, ...] = ()) -> Stream:
    """Play the `head` pairs, then pair each element with its partner.

    The elements are enumerated ascending when infinite and cycled when
    finite, so every element is covered.
    """
    members = _support_walk(elements)

    def walk() -> Iterator[Pair]:
        yield from head
        for x in members():
            yield Pair.of(x, partner_of(x))

    return Stream(CONTRASTIVE, provenance, walk, targets)


def canonical_text(h: Hypothesis) -> Stream:
    """Enumerate the support in ascending order, wrapping when finite."""
    if h.support.is_empty():
        raise ValueError(f"{h.id} has empty support, no text exists")
    return Stream(TEXT, f"canonical-text({h.id})", _support_walk(h.support), targets=(h,))


def canonical_informant(h: Hypothesis) -> Stream:
    """Enumerate X in ascending order with true labels."""
    return Stream(
        INFORMANT,
        f"canonical-informant({h.id})",
        lambda: ((x, 1 if h.contains(x) else 0) for x in itertools.count()),
        targets=(h,),
    )


def scripted(kind: str, items: list, tail: Stream | None = None, provenance: str = "scripted",
             targets: tuple[Hypothesis, ...] = ()) -> Stream:
    """A stream that plays `items` first, then follows `tail`.

    With no tail, the item list repeats forever (list-and-repeat).
    """
    if not items and tail is None:
        raise ValueError("scripted stream needs items or a tail")
    fixed = tuple(items)
    if tail is not None and tail.kind != kind:
        raise ValueError(f"tail kind {tail.kind!r} does not match {kind!r}")

    def walk() -> Iterator:
        return itertools.cycle(fixed) if tail is None else itertools.chain(fixed, tail.walk())

    return Stream(kind, provenance, walk, targets=targets)


def scripted_contrastive(h: Hypothesis, pairs: list[Pair], tail: str = "canonical") -> Stream:
    """A contrastive stream for h from explicit pairs plus a covering tail.

    All scripted pairs must cross h; the tail is either the canonical stream
    (guaranteeing coverage) or `repeat` (list-and-repeat of the script).
    """
    for i, p in enumerate(pairs):
        if not crosses(h, p):
            raise ValueError(f"scripted pair #{i + 1} {p} does not cross {h.id}")
    tail_stream = canonical_contrastive(h) if tail == "canonical" else None
    return scripted(
        CONTRASTIVE, pairs, tail=tail_stream,
        provenance=f"scripted-contrastive({h.id},{tail})", targets=(h,),
    )


def sampled_contrastive(h: Hypothesis, seed: int, horizon: int = 64) -> Stream:
    """A pseudorandom valid contrastive stream for h.

    Odd items walk the canonical coverage schedule.  Each even item t is a
    random crossing pair drawn below `horizon` from a generator seeded by
    `seed` and t, so the stream replays bit-for-bit.  An empty side is not
    drawn from: it gives the least positive or z* without using the
    generator.
    """
    require_proper(h)
    members = _support_walk(h.support)
    least, zstar = h.support.min_element(), h.support.complement().min_element()
    positives = h.support.enumerate_below(horizon)
    negatives = h.support.complement().enumerate_below(horizon)

    def walk() -> Iterator[Pair]:
        for t, x in zip(itertools.count(2, 2), members()):
            yield Pair.of(x, zstar)
            rng = random.Random(f"{seed}:{t}")
            drawn = rng.choice(positives) if positives else least
            yield Pair.of(drawn, rng.choice(negatives) if negatives else zstar)

    return Stream(CONTRASTIVE, f"sampled-contrastive({h.id},seed={seed})", walk, targets=(h,))


def sampled_text(h: Hypothesis, seed: int, horizon: int = 64) -> Stream:
    """A pseudorandom text for h: coverage walk interleaved with repeats."""
    if h.support.is_empty():
        raise ValueError(f"{h.id} has empty support, no text exists")
    members = _support_walk(h.support)
    least = h.support.min_element()
    positives = h.support.enumerate_below(horizon)

    def walk() -> Iterator[int]:
        for t, x in zip(itertools.count(2, 2), members()):
            yield x
            yield random.Random(f"{seed}:{t}").choice(positives) if positives else least

    return Stream(TEXT, f"sampled-text({h.id},seed={seed})", walk, targets=(h,))


# ----------------------------------------------------------------------
# corruption
# ----------------------------------------------------------------------

def corrupt(inner: Stream, injections: list[tuple[int, object]]) -> Stream:
    """Replace the items at scripted indices, delaying displaced honest items.

    Index t emits the scripted item when t is an injection index; otherwise
    it emits the next honest item not yet played, so every honest item still
    appears and coverage is preserved.  At most len(injections) items of the
    result violate the inner stream's validity.
    """
    indices = [t for t, _ in injections]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate injection indices: {sorted(indices)}")
    if any(t < 1 for t in indices):
        raise ValueError("injection indices are 1-based")
    for t, item in injections:
        _check_item_kind(inner.kind, item)
    table = dict(injections)
    ordered = sorted(indices)

    def walk() -> Iterator:
        honest, last = inner.walk(), 0
        for t in ordered:
            yield from itertools.islice(honest, t - last - 1)
            yield table[t]
            last = t
        yield from honest

    tag = ",".join(f"{t}:{table[t]}" for t in ordered)
    return Stream(
        inner.kind,
        f"corrupt({inner.provenance};[{tag}])",
        walk,
        targets=inner.targets,
    )


def _check_item_kind(kind: str, item) -> None:
    if kind == CONTRASTIVE and not isinstance(item, Pair):
        raise ValueError(f"contrastive streams carry pairs, got {item!r}")
    if kind == TEXT and not isinstance(item, int):
        raise ValueError(f"text streams carry naturals, got {item!r}")
    if kind == INFORMANT:
        ok = (isinstance(item, tuple) and not isinstance(item, Pair)
              and len(item) == 2 and item[1] in (0, 1))
        if not ok:
            raise ValueError(f"informant streams carry (example, label), got {item!r}")


# ----------------------------------------------------------------------
# validity
# ----------------------------------------------------------------------

class ValidityReport(Record):
    """Exact violation indices and the as-yet-uncovered positives.

    For contrastive prefixes a violation is a pair that fails the
    exactly-one-positive condition; for texts, a term outside the support;
    for informants, a mislabeled example.
    """

    _compared = ("xor_violations", "coverage_deficit", "horizon")

    def __init__(self, xor_violations: tuple[int, ...], coverage_deficit: SymbolicSet,
                 horizon: int):
        self.__dict__.update(xor_violations=xor_violations, coverage_deficit=coverage_deficit,
                             horizon=horizon)

    def budget_ok(self, k: int) -> bool:
        return len(self.xor_violations) <= k

    @property
    def clean(self) -> bool:
        return not self.xor_violations


def validate(prefix: Prefix, h: Hypothesis, horizon: int) -> ValidityReport:
    """Check a prefix against a target: violations plus coverage deficit."""
    bad: list[int] = []
    if prefix.kind == CONTRASTIVE:
        for t, pair in enumerate(prefix.items, 1):
            if not crosses(h, pair):
                bad.append(t)
        must_cover = h.support
    elif prefix.kind == TEXT:
        for t, x in enumerate(prefix.items, 1):
            if not h.contains(x):
                bad.append(t)
        must_cover = h.support
    else:
        for t, (x, label) in enumerate(prefix.items, 1):
            if bool(label) != h.contains(x):
                bad.append(t)
        must_cover = SymbolicSet.universe()
    seen = prefix.seen()
    deficit = SymbolicSet.finite(
        x for x in must_cover.enumerate_below(horizon) if x not in seen
    )
    return ValidityReport(tuple(bad), deficit, horizon)


# ----------------------------------------------------------------------
# text-to-contrastive simulation input
# ----------------------------------------------------------------------

def synthetic_contrastive_from_text(prefix: Prefix) -> Prefix:
    """Pair every text term with the least example not seen yet.

    The partner z_n is the least example missing from the whole prefix, so
    every term of one call gets the same partner.  Once the text has shown
    everything below the least non-positive z*, the partner freezes at z*
    and the outputs become prefixes of the single fixed stream pairing each
    positive with z*.  The text-simulation learner keeps z_n as it goes and
    makes the same pairs itself.
    """
    if prefix.kind != TEXT:
        raise ValueError(f"expected a text prefix, got {prefix.kind!r}")
    if not prefix.items:
        raise ValueError("synthetic pairing needs a nonempty text prefix")
    seen = prefix.seen()
    z = 0
    while z in seen:
        z += 1
    return Prefix(CONTRASTIVE, tuple(Pair.of(x, z) for x in prefix.items))


# ----------------------------------------------------------------------
# prefix serialization (one item per line)
# ----------------------------------------------------------------------

def format_prefix(prefix: Prefix) -> str:
    lines = [f"{item[0]},{item[1]}" if prefix.kind == INFORMANT else str(item)
             for item in prefix.items]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prefix(text: str, kind: str) -> Prefix:
    items: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            items.append(parse_item(line, kind))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return Prefix(kind, tuple(items))


def parse_item(text: str, kind: str):
    text = text.strip()
    if kind == CONTRASTIVE:
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"expected {{x,y}}, got {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected two elements, got {text!r}")
        return Pair.of(int(parts[0]), int(parts[1]))
    if kind == INFORMANT:
        parts = text.split(",")
        if len(parts) != 2 or parts[1].strip() not in ("0", "1"):
            raise ValueError(f"expected x,label with label 0 or 1, got {text!r}")
        return (int(parts[0]), int(parts[1]))
    return int(text)


def parse_injection(spec: str, kind: str) -> tuple[int, object]:
    """Parse a CLI injection `index:item`, e.g. `3:{0,4}` for pair streams."""
    index, sep, item = spec.partition(":")
    if not sep:
        raise ValueError(f"injection spec needs index:item, got {spec!r}")
    return (int(index), parse_item(item, kind))
