"""Decidable set algebra over the example space X = {0, 1, 2, ...}.

A set is stored as a union of residue classes modulo m, corrected by finite
exception sets:

    S = {n : n mod m in residues}  union  plus  minus  minus

This family is closed under union, intersection, complement and difference,
and membership, emptiness, finiteness, cardinality and least elements are all
exactly computable.  Every region that the crossing geometry needs (support
intersections, differences, complements) therefore has a decidable emptiness
test instead of a horizon-approximate one.

Values are immutable and canonical: operations always return the unique
smallest-modulus representation, so structural equality coincides with set
equality.

The residue part is the int `mask`, bit r set iff r is a residue; the
frozenset `residues` is derived from it on first read and cached.  Equality
and hashing go over (modulus, mask, plus, minus), and membership tests mask
bits.  Set operations lift masks by doubling, combine them with `|`, `&`,
`& ~` and `^`, and canonicalise by rotating the mask by each divisor: O(lcm
/ word) in C plus O(exceptions) Python steps.  A complement, and the sorted
residues and exceptions that enumeration reads, are computed once per value;
the complement links back to its source.  No modulus, and no lcm an operation
lifts to, may exceed `MAX_MODULUS`; the constructors, the literal parser, the
operations and `normalize_pair` raise a `ValueError` first.
"""

from __future__ import annotations

import itertools
import operator
import re
from bisect import bisect_left
from functools import cached_property, lru_cache, reduce
from math import lcm
from typing import Callable, Iterable, Iterator

MAX_MODULUS = 1 << 20  # the largest modulus of a set, and lcm an operation may lift to


class Record:
    """Value semantics for the package's plain record classes.

    A subclass names its fields in `_compared`, in order, and writes its own
    `__init__`.  Equality holds only between instances of one class and
    compares those fields as a tuple; the hash is the hash of that tuple;
    repr is `Name(field=value, ...)` over `_shown` (the compared fields unless
    the class says otherwise).  Nothing is generated: each method reads the
    field names at run time; sets and hypotheses, compared most often, write
    `__eq__` and `__hash__` out instead (step states no longer do).

    Instances are immutable: `__init__` fills the instance dict directly (one
    field goes through object.__setattr__, cheaper than a dict update), and
    assignment or deletion raises AttributeError.  The mutable records, the
    learners' slotted step states and the acceptance results, restore
    object's `__setattr__` and `__delattr__`.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__dict__.get("_compared")
        if names:  # a class that names no fields keeps its parent's
            get = operator.attrgetter(*names)  # a tuple of two or more fields, in C
            cls._key = get if len(names) > 1 else staticmethod(lambda obj: (get(obj),))
            cls._shown = cls.__dict__.get("_shown", names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Cardinality(Record):
    """Exact size of a symbolic set: a finite count or countably infinite."""

    _compared = ("count",)

    def __init__(self, count: int | None):  # None encodes countably infinite
        object.__setattr__(self, "count", count)  # one field: no dict update

    @staticmethod
    def finite(n: int) -> "Cardinality":
        if n < 0:
            raise ValueError("finite cardinality must be nonnegative")
        return Cardinality(n)

    @staticmethod
    def infinite() -> "Cardinality":
        return Cardinality(None)

    @property
    def is_finite(self) -> bool:
        return self.count is not None

    @property
    def is_infinite(self) -> bool:
        return self.count is None

    def __str__(self) -> str:
        return "inf" if self.count is None else str(self.count)


@lru_cache(maxsize=256)  # a pure function of one integer
def _divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


class SymbolicSet(Record):
    """Subset of X given by residue classes mod m plus/minus finite exceptions.

    Invariants (checked on every value, on the mask):
      * modulus >= 1 and the mask has no bit at or above the modulus;
      * no element of `plus` is congruent to a residue (additions are real);
      * every element of `minus` is congruent to a residue (removals are real);
      * plus and minus are disjoint.

    Use :meth:`build` (or the factory helpers) rather than the raw
    constructor; `build` also reduces the modulus to the canonical smallest
    one, which the algebraic operations rely on for structural equality.
    """

    _compared = ("modulus", "mask", "plus", "minus")  # mask: bit r set iff r is a residue

    def __init__(self, modulus: int, residues: frozenset[int],
                 plus: frozenset[int], minus: frozenset[int]):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if residues and (min(residues) < 0 or max(residues) >= modulus):
            raise ValueError(f"residues must lie in [0, {modulus}): {sorted(residues)}")
        checked = SymbolicSet._of_mask(modulus, _mask_of(residues, modulus), plus, minus)
        self.__dict__.update(vars(checked))

    @classmethod
    def _of_mask(cls, m: int, mask: int, plus: frozenset[int], minus: frozenset[int]):
        """The value with these fields; invariants are checked on the mask, a bit
        test per exception."""
        if m < 1 or mask >> m:
            raise ValueError(f"residues must lie in [0, {m}): {sorted(_residues_of(mask))}")
        if plus or minus:  # with no exceptions none of these checks can fail
            if any(x < 0 for x in plus) or any(x < 0 for x in minus):
                raise ValueError("exception elements must be naturals")
            bad_plus = sorted(x for x in plus if mask >> x % m & 1)
            if bad_plus:
                raise ValueError(f"plus elements already covered by residues: {bad_plus}")
            bad_minus = sorted(x for x in minus if not mask >> x % m & 1)
            if bad_minus:
                raise ValueError(f"minus elements not covered by residues: {bad_minus}")
            if not plus.isdisjoint(minus):
                raise ValueError(f"plus and minus overlap: {sorted(plus & minus)}")
        out = object.__new__(cls)
        out.__dict__.update(modulus=m, mask=mask, plus=plus, minus=minus)
        return out

    def __eq__(self, other):  # written out: the most compared record
        if other.__class__ is self.__class__:
            return ((self.modulus, self.mask, self.plus, self.minus)
                    == (other.modulus, other.mask, other.plus, other.minus))
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus, self.mask, self.plus, self.minus))

    @cached_property
    def residues(self) -> frozenset[int]:
        return _residues_of(self.mask)

    @cached_property
    def sorted_parts(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(residues, plus, minus), each ascending: what enumeration reads."""
        return tuple(sorted(self.residues)), tuple(sorted(self.plus)), tuple(sorted(self.minus))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        modulus: int,
        residues: Iterable[int] = (),
        plus: Iterable[int] = (),
        minus: Iterable[int] = (),
    ) -> "SymbolicSet":
        """Construct a canonical set, repairing redundant exceptions.

        Plus elements already in the residue part and minus elements outside
        it are dropped (they do not change the denoted set).  An element
        listed in both plus and minus is contradictory and rejected.  The
        modulus is reduced to the smallest divisor that reproduces the set.
        """
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        res = frozenset(r % modulus for r in residues)
        plus_set = frozenset(plus)
        minus_set = frozenset(minus)
        if plus_set & minus_set:
            raise ValueError(f"plus and minus overlap: {sorted(plus_set & minus_set)}")
        plus_set = frozenset(x for x in plus_set if x % modulus not in res)
        minus_set = frozenset(x for x in minus_set if x % modulus in res)
        return _canonical(modulus, _mask_of(res, modulus), plus_set, minus_set)

    @staticmethod
    def empty() -> "SymbolicSet":
        return SymbolicSet.build(1)

    @staticmethod
    def universe() -> "SymbolicSet":
        return SymbolicSet.build(1, residues={0})

    @staticmethod
    def finite(elements: Iterable[int]) -> "SymbolicSet":
        return SymbolicSet.build(1, plus=elements)

    @staticmethod
    def residue_class(modulus: int, residues: Iterable[int]) -> "SymbolicSet":
        return SymbolicSet.build(modulus, residues=residues)

    @staticmethod
    def cofinite(holes: Iterable[int]) -> "SymbolicSet":
        """X minus a finite set of holes."""
        return SymbolicSet.build(1, residues={0}, minus=holes)

    # ------------------------------------------------------------------
    # membership and pointwise structure
    # ------------------------------------------------------------------

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x in self.plus:
            return True
        return x not in self.minus if self.mask >> x % self.modulus & 1 else False

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    # ------------------------------------------------------------------
    # boolean algebra
    # ------------------------------------------------------------------

    def _pointwise(self, other: "SymbolicSet", op: Callable[[int, int], int]) -> "SymbolicSet":
        """Apply a bitwise `op` to both sets; it acts on masks and on bools alike."""
        m, n = self.modulus, other.modulus
        big = _common_modulus(m, n)
        res = op(_lift_mask(self.mask, m, big), _lift_mask(other.mask, n, big))
        plus: set[int] = set()
        minus: set[int] = set()
        for x in self.plus | self.minus | other.plus | other.minus:
            actual = op(self.contains(x), other.contains(x))
            base = op(self.mask >> x % m & 1, other.mask >> x % n & 1)
            if actual and not base:
                plus.add(x)
            elif base and not actual:
                minus.add(x)
        return _canonical(big, res, frozenset(plus), frozenset(minus))

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._pointwise(other, operator.or_)

    def intersect(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._pointwise(other, operator.and_)

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._pointwise(other, lambda a, b: a & ~b)

    def complement(self) -> "SymbolicSet":
        return self._complement

    @cached_property
    def _complement(self) -> "SymbolicSet":
        # Added elements become removals of the complement and vice versa.
        full = (1 << self.modulus) - 1
        out = _canonical(self.modulus, self.mask ^ full, self.minus, self.plus)
        if out.modulus == self.modulus:  # self is canonical, so it is out's complement
            out.__dict__["_complement"] = self
        return out

    def __or__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.union(other)

    def __and__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.intersect(other)

    def __sub__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.difference(other)

    def __invert__(self) -> "SymbolicSet":
        return self.complement()

    # ------------------------------------------------------------------
    # size queries
    # ------------------------------------------------------------------

    def cardinality(self) -> Cardinality:
        if self.mask:
            return Cardinality.infinite()
        # minus is empty by invariant when there is no residue part
        return Cardinality.finite(len(self.plus))

    def is_empty(self) -> bool:
        return not self.mask and not self.plus

    def is_finite(self) -> bool:
        return not self.mask

    def is_subset(self, other: "SymbolicSet") -> bool:
        return self.difference(other).is_empty()

    def is_disjoint(self, other: "SymbolicSet") -> bool:
        return self.intersect(other).is_empty()

    def min_element(self) -> int | None:
        return _least(self.modulus, self.mask, self.plus, self.minus)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def enumerate_below(self, horizon: int) -> list[int]:
        """Ascending list of all members strictly below `horizon`."""
        return list(itertools.takewhile(lambda x: x < horizon, self.members()))

    def members(self) -> Iterator[int]:
        """Ascending enumeration of all members (infinite when the set is).

        O(1) amortised per member: the residue part block by block of the
        modulus, with `plus` merged in order and `minus` skipped.
        """
        residues, plus, _ = self.sorted_parts
        if not self.mask:
            yield from plus
            return
        i = 0
        for base in itertools.count(0, self.modulus):
            for r in residues:
                x = base + r
                while i < len(plus) and plus[i] < x:
                    yield plus[i]
                    i += 1
                if x not in self.minus:
                    yield x

    def nth_member(self, index: int) -> int:
        """The member at `index` (0-based) of the ascending enumeration.

        Closed form without exceptions, otherwise a binary search on the rank
        of x (the count of members below it), (x // m)·k + #{residues < x mod
        m} + #{plus < x} − #{minus < x}, over the window of the residue part
        alone that the exceptions can shift the answer across: O(log) at most.
        """
        if index < 0:
            raise IndexError(index)
        residues, plus, minus = self.sorted_parts
        if not self.mask:
            if index >= len(plus):
                raise IndexError(f"set has only {len(plus)} elements, asked for index {index}")
            return plus[index]
        m, k = self.modulus, len(residues)
        j = index + len(minus)  # the residue part's member at j bounds the answer above
        hi = j // k * m + residues[j % k]
        if not plus and not minus:
            return hi
        j = index - len(plus)  # and the one at j, if any, below
        lo = j // k * m + residues[j % k] if j >= 0 else 0
        while lo < hi:  # least x with more than `index` members at or below it
            x = (lo + hi) // 2 + 1
            if (x // m * k + bisect_left(residues, x % m)
                    + bisect_left(plus, x) - bisect_left(minus, x)) > index:
                hi = x - 1
            else:
                lo = x
        return lo

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def literal(self) -> str:
        """Canonical textual form: `mod m { r1, r2 } + {a, b} - {c}`."""
        parts = [f"mod {self.modulus} {{{_render_elems(self.residues)}}}"]
        if self.plus:
            parts.append(f"+ {{{_render_elems(self.plus)}}}")
        if self.minus:
            parts.append(f"- {{{_render_elems(self.minus)}}}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.literal()


def intersection_of(sets: Iterable[SymbolicSet]) -> SymbolicSet:
    """The intersection of the given sets; the universe when there are none."""
    sets = list(sets)
    return reduce(SymbolicSet.intersect, sets) if sets else SymbolicSet.universe()


def _least(m: int, mask: int, plus: frozenset[int], minus: frozenset[int]) -> int | None:
    """The least element of the set with these fields, at any modulus m."""
    least = min(plus, default=None)
    if mask:
        n = -1  # walk up the residue part's members, passing one removal per step
        while n < 0 or n in minus:  # a shift by 0 would copy the mask; past it, wrap
            q, r = divmod(n + 1, m)
            above = (mask >> r if r else mask) or mask << (m - r)
            n = q * m + r + (above & -above).bit_length() - 1
        least = n if least is None else min(least, n)
    return least


def _render_elems(xs: frozenset[int]) -> str:
    if not xs:
        return " "
    return " " + ", ".join(str(x) for x in sorted(xs)) + " "


def normalize_pair(a: SymbolicSet, b: SymbolicSet) -> tuple[SymbolicSet, SymbolicSet]:
    """Lift both sets to their common modulus lcm(m_a, m_b).

    The outputs denote the same sets as the inputs.  They are intentionally
    not modulus-canonical (that is the point of the lift); feed them back
    through :meth:`SymbolicSet.build` or any operation to re-canonicalize.
    """
    big = _common_modulus(a.modulus, b.modulus)
    return _lift(a, big), _lift(b, big)


def _lift(s: SymbolicSet, big: int) -> SymbolicSet:
    if big == s.modulus:
        return s
    if big % s.modulus != 0:
        raise ValueError(f"{big} is not a multiple of modulus {s.modulus}")
    return SymbolicSet._of_mask(big, _lift_mask(s.mask, s.modulus, big), s.plus, s.minus)


# ----------------------------------------------------------------------
# residue masks
# ----------------------------------------------------------------------

def _common_modulus(m: int, n: int) -> int:
    """lcm(m, n), checked against MAX_MODULUS before anything is lifted to it."""
    big = m if m == n else lcm(m, n)
    if big > MAX_MODULUS:
        raise ValueError(f"lcm of moduli {m} and {n} is {big}, above MAX_MODULUS = {MAX_MODULUS}")
    return big


def _lift_mask(mask: int, width: int, big: int) -> int:
    """The period-`width` mask repeated up to `big`, a multiple of `width`."""
    while width < big:  # doubling: O(big / word) in all
        mask |= mask << width
        width *= 2
    return mask & ((1 << big) - 1)


def _mask_of(residues: frozenset[int], modulus: int) -> int:
    if modulus > MAX_MODULUS:  # `build` and the raw constructor both come here first
        raise ValueError(f"modulus {modulus} is above MAX_MODULUS = {MAX_MODULUS}")
    if modulus > 64:  # one pass over a digit buffer, not one big shift per residue
        digits = bytearray(b"0") * modulus
        for r in residues:
            digits[~r] = 49  # ord("1") as the r-th digit from the right
        return int(digits, 2)  # linear for a power-of-two base
    mask = 0
    for r in residues:
        mask |= 1 << r
    return mask


def _residues_of(mask: int) -> frozenset[int]:
    """The set bits of `mask`: O(bits / word) in C, then one find per set bit."""
    if mask < 2:
        return frozenset((0,) if mask else ())
    digits, out = bin(mask)[:1:-1], []
    r = digits.find("1")
    while r >= 0:
        out.append(r)
        r = digits.find("1", r + 1)
    return frozenset(out)


def _canonical(modulus: int, mask: int, plus: frozenset[int], minus: frozenset[int]) -> SymbolicSet:
    """The set with residue part `mask` mod `modulus`, at its smallest period."""
    count = mask.bit_count()
    for d in _divisors(modulus):
        # a period-d mask repeats its bit count and is invariant under rotation by d
        if count % (modulus // d) == 0:
            low = mask & ((1 << d) - 1)
            if (mask >> d) | (low << (modulus - d)) == mask:
                return SymbolicSet._of_mask(d, low, plus, minus)
    raise AssertionError("unreachable: the modulus is a period")


# ----------------------------------------------------------------------
# literal syntax
# ----------------------------------------------------------------------

class SetLiteralError(ValueError):
    """Parse failure for the textual set syntax, with line/column info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN = re.compile(r"(mod\b|\d+|[{}+,-])|\S")  # a token, or the first unrecognized character


def parse_set_literal(text: str) -> SymbolicSet:
    """Parse `mod <m> { r1, r2 } [+ {a, ...}] [- {b, ...}]` into a set.

    Round-trips with :meth:`SymbolicSet.literal` on canonical forms.  One scan
    with a compiled pattern gives the tokens and one loop walks them; an error
    (a zero modulus, a residue not below it, or an element both added and
    removed included) locates its token only when it is raised.
    """
    tokens = _TOKEN.findall(text)  # "" for an unrecognized character
    if "" in tokens:
        raise _fail(text, tokens, tokens.index(""), "")
    n = len(tokens)
    if not n or tokens[0] != "mod":
        raise _fault(text, tokens, 0, "'mod'")
    try:
        modulus = int(tokens[1])  # int() reads exactly the digit tokens
    except (IndexError, ValueError):
        raise _fault(text, tokens, 1, None) from None
    if modulus > MAX_MODULUS:
        raise _fail(text, tokens, 1, f"modulus {modulus} is above MAX_MODULUS = {MAX_MODULUS}")
    if modulus < 1:
        raise _fail(text, tokens, 1, f"modulus must be >= 1, got {modulus}")
    residues, plus, minus, sign, pos = set(), set(), set(), "", 2
    while True:  # one braced list per pass: the residues, then each exception list
        if pos >= n or tokens[pos] != "{":
            raise _fault(text, tokens, pos, "'{'")
        first = pos = pos + 1  # the token index of the list's first element
        values: list[int] = []
        if pos < n and tokens[pos] == "}":
            pos += 1
        else:
            while True:
                try:
                    values.append(int(tokens[pos]))
                except (IndexError, ValueError):
                    raise _fault(text, tokens, pos, None) from None
                pos += 2
                if pos > n:
                    raise _fault(text, tokens, n, None)
                if tokens[pos - 1] == "}":
                    break
                if tokens[pos - 1] != ",":
                    raise _fault(text, tokens, pos - 1, "',' or '}'")
        side, other = (plus, minus) if sign == "+" else (minus, plus) if sign else (residues, ())
        if (values and max(values) >= modulus) if not sign else not other.isdisjoint(values):
            k = next(k for k, x in enumerate(values) if (x in other if sign else x >= modulus))
            message = f"plus and minus overlap: [{values[k]}]" if sign else (
                f"residue {values[k]} must lie in [0, {modulus})")
            raise _fail(text, tokens, first + 2 * k, message)
        side.update(values)
        if pos >= n:
            return SymbolicSet.build(modulus, residues, plus, minus)
        sign = tokens[pos]
        if sign not in ("+", "-"):
            raise _fault(text, tokens, pos, "'+' or '-'")
        pos += 1


def _fail(text: str, tokens: list[str], pos: int, message: str) -> SetLiteralError:
    """The error at token `pos` (the end of the text past the last token), by
    1-based line and column; no message: the token is unrecognized."""
    offset = len(text) if pos >= len(tokens) else next(
        itertools.islice(_TOKEN.finditer(text), pos, None)).start()
    line_start = text.rfind("\n", 0, offset) + 1
    return SetLiteralError(message or f"unrecognized input {text[offset:offset + 10]!r}",
                           text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _fault(text: str, tokens: list[str], pos: int, expected: str | None) -> SetLiteralError:
    """The error at token `pos` where `expected` (shown as is), or a number (None), was due."""
    if pos >= len(tokens):
        message = f"unexpected end of input, expected {expected}"
    elif expected is not None:
        message = f"expected {expected}, found {tokens[pos]!r}"
    elif not tokens[pos].isdigit():
        message = f"expected a number, found {tokens[pos]!r}"
    else:  # above the interpreter's limit on integer string digits
        message = f"{len(tokens[pos])}-digit number is too long"
    return _fail(text, tokens, pos, message)
