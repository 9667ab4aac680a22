"""Shared helpers for the test suite: seeded random instance generators."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from crosslimit.space import SymbolicSet


def random_symbolic_set(
    rng: random.Random,
    max_modulus: int = 6,
    max_exceptions: int = 4,
    element_bound: int = 40,
) -> SymbolicSet:
    """A random canonical set with bounded modulus and exception counts."""
    m = rng.randint(1, max_modulus)
    residues = {r for r in range(m) if rng.random() < 0.5}
    n_plus = rng.randint(0, max_exceptions)
    n_minus = rng.randint(0, max_exceptions)
    plus = {rng.randrange(element_bound) for _ in range(n_plus)}
    minus = {rng.randrange(element_bound) for _ in range(n_minus)}
    # build() drops vacuous exceptions; resolve plus/minus clashes first
    plus -= minus
    return SymbolicSet.build(m, residues, plus, minus)


def random_nonempty_set(rng: random.Random, **kwargs) -> SymbolicSet:
    while True:
        s = random_symbolic_set(rng, **kwargs)
        if not s.is_empty():
            return s


def random_proper_support(rng: random.Random, **kwargs) -> SymbolicSet:
    """A random set that is neither empty nor all of X."""
    while True:
        s = random_symbolic_set(rng, **kwargs)
        if not s.is_empty() and not s.complement().is_empty():
            return s


@st.composite
def small_sets(draw) -> SymbolicSet:
    """A set mod 1 to 4 with up to three additions and removals below 16."""
    m = draw(st.integers(1, 4))
    residues = draw(st.frozensets(st.integers(0, m - 1)))
    plus = draw(st.frozensets(st.integers(0, 15), max_size=3))
    minus = draw(st.frozensets(st.integers(0, 15), max_size=3)) - plus
    return SymbolicSet.build(m, residues, plus, minus)
