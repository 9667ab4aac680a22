"""Reference oracle for the benchmark's output checks.

The oracle never calls the set algebra's boolean operations.  A set is read
from its literal text (`mod m { r.. } + { a.. } - { b.. }`) and membership is
evaluated point by point.  Every question is answered exactly by looking up
to a horizon: the largest exception, plus one full period of the lcm of the
moduli involved, plus one.  Beyond the largest exception each literal is
periodic with its modulus, so a combination of literals is periodic with the
lcm and one full period past the exceptions shows all of it.

Each `check_*` function takes the program's answer and returns a list of
problems; an empty list means the answer agrees with the oracle.
"""

from __future__ import annotations

import re
from math import lcm

_LITERAL = re.compile(
    r"\s*mod\s+(\d+)\s*\{([^}]*)\}"
    r"(?:\s*\+\s*\{([^}]*)\})?"
    r"(?:\s*-\s*\{([^}]*)\})?\s*"
)


def _elems(text: str | None) -> frozenset[int]:
    if not text or not text.strip():
        return frozenset()
    return frozenset(int(part) for part in text.split(","))


class Lit:
    """A set read from its literal text; membership by point evaluation."""

    def __init__(self, text: str):
        match = _LITERAL.fullmatch(text)
        if match is None:
            raise ValueError(f"not a set literal: {text!r}")
        self.modulus = int(match.group(1))
        self.residues = _elems(match.group(2))
        self.plus = _elems(match.group(3))
        self.minus = _elems(match.group(4))

    def contains(self, x: int) -> bool:
        if x in self.plus:
            return True
        return x % self.modulus in self.residues and x not in self.minus

    def infinite(self) -> bool:
        return bool(self.residues)

    def exceptions(self) -> frozenset[int]:
        return self.plus | self.minus


class Punctured:
    """The base set of a punctured family with one hole removed."""

    def __init__(self, base: Lit, hole: int):
        self.base = base
        self.hole = hole
        self.modulus = base.modulus

    def contains(self, x: int) -> bool:
        return x != self.hole and self.base.contains(x)

    def exceptions(self) -> frozenset[int]:
        return self.base.exceptions() | {self.hole}


def horizon(sets, points=()) -> int:
    """Largest exception or point, plus one lcm period of the moduli, plus one."""
    largest = max(
        [x for s in sets for x in s.exceptions()] + list(points), default=0
    )
    return largest + lcm(*(s.modulus for s in sets)) + 1


def crosses(s, pair) -> bool:
    lo, hi = pair
    return s.contains(lo) != s.contains(hi)


def subset(a, b) -> bool:
    return all(b.contains(x) for x in range(horizon([a, b])) if a.contains(x))


# ----------------------------------------------------------------------
# version spaces, closures, hollowness
# ----------------------------------------------------------------------

def version_space(members: dict, edges) -> dict:
    return {hid: s for hid, s in members.items() if all(crosses(s, e) for e in edges)}


def closure_points(members: dict, edges, limit: int) -> list[int] | None:
    """Closure members below `limit`; None when the version space is empty."""
    fitting = list(version_space(members, edges).values())
    if not fitting:
        return None
    return [x for x in range(limit) if all(s.contains(x) for s in fitting)]


def is_hollow(members: dict, edges, limit: int | None = None) -> bool:
    vertices = {x for e in edges for x in e}
    if limit is None:
        limit = horizon(list(members.values()), vertices)
    points = closure_points(members, edges, limit)
    return points is not None and set(points) <= vertices


def punctured_members(base: Lit, edges) -> tuple[dict, int]:
    """The limit member and every puncture with a hole below the horizon.

    Returns the members and the horizon.  Past the edge vertices every base
    element behaves alike, and each point checked below the horizon has its
    own puncture among the members, as in the infinite family.
    """
    vertices = {x for e in edges for x in e}
    limit = horizon([base], vertices)
    members = {"h_inf": base}
    for hole in range(limit):
        if base.contains(hole):
            members[f"hole{hole}"] = Punctured(base, hole)
    return members, limit


def check_witness_hollow(members: dict, edges, label: str, limit: int | None = None) -> list[str]:
    if not is_hollow(members, edges, limit):
        return [f"{label}: witness {sorted(edges)} is not hollow"]
    return []


def check_pinned_bound(dimension: int, core_size: int, anchor_size: int, label: str) -> list[str]:
    bound = core_size * anchor_size
    if dimension > bound:
        return [f"{label}: search result {dimension} exceeds |core|*|anchors| = {bound}"]
    return []


# ----------------------------------------------------------------------
# eliminability and defects by brute-force coverage
# ----------------------------------------------------------------------

def defect_points(h: Lit, g: Lit, limit: int | None = None) -> tuple[list[int], bool]:
    """Positives of h below `limit` with no partner crossing both h and g.

    A partner of x lies in the region with both memberships flipped, so x
    is covered exactly when that region has a point below the horizon of h
    and g.  Returns the defects and whether the defect set is infinite (a
    defect past the largest exception repeats every period).
    """
    own = horizon([h, g])
    realized = {(h.contains(y), g.contains(y)) for y in range(own)}
    defects = [
        x for x in range(max(own, limit or 0))
        if h.contains(x) and (not h.contains(x), not g.contains(x)) not in realized
    ]
    largest = max(h.exceptions() | g.exceptions(), default=-1)
    return defects, any(x > largest for x in defects)


def check_eliminable(h: Lit, g: Lit, eliminable: bool, witness, label: str) -> list[str]:
    defects, _ = defect_points(h, g)
    problems = []
    if eliminable != bool(defects):
        problems.append(f"{label}: eliminable={eliminable}, brute force says {bool(defects)}")
    if eliminable and witness not in defects:
        problems.append(f"{label}: witness {witness} is covered by a common crossing pair")
    return problems


def check_defect(h: Lit, g: Lit, kappa: str, defect_set: str, label: str) -> list[str]:
    reported = Lit(defect_set)
    limit = horizon([h, g, reported])
    defects, infinite = defect_points(h, g, limit)
    expected = "inf" if infinite else str(len(defects))
    problems = []
    if kappa != expected:
        problems.append(f"{label}: defect number {kappa}, brute force says {expected}")
    brute = set(defects)
    wrong = [x for x in range(limit) if reported.contains(x) != (x in brute)]
    if wrong:
        problems.append(f"{label}: defect set differs from brute force at {wrong[:5]}")
    return problems


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def check_telltales(members: dict, telltales: dict, label: str) -> list[str]:
    """Each tell-tale lies in its support and in no strictly smaller support."""
    problems = []
    for gid, g in members.items():
        tale = set(telltales.get(gid, ()))
        if not all(g.contains(x) for x in tale):
            problems.append(f"{label}: tell-tale of {gid} leaves its support")
        for fid, f in members.items():
            if fid == gid:
                continue
            strictly_below = subset(f, g) and not subset(g, f)
            if strictly_below and all(f.contains(x) for x in tale):
                problems.append(f"{label}: tell-tale of {gid} fits inside {fid}")
    return problems


def check_diamond(corner: tuple, members: dict, label: str) -> list[str]:
    """Diamond inclusions, and text generation exactly on unbounded supports."""
    ctr_id, txt_id, ctr_gen, txt_gen = corner
    problems = []
    if ctr_id == "yes" and (txt_id != "yes" or ctr_gen != "yes"):
        problems.append(f"{label}: ctr_id yes but txt_id {txt_id}, ctr_gen {ctr_gen}")
    if "yes" in (ctr_gen, txt_id) and txt_gen == "no":
        problems.append(f"{label}: a lower corner is yes while txt_gen is no")
    unbounded = all(s.infinite() for s in members.values())
    if (txt_gen == "yes") != unbounded:
        problems.append(f"{label}: txt_gen {txt_gen} but unbounded supports = {unbounded}")
    return problems


def check_corner(corner: tuple, expected: tuple, label: str) -> list[str]:
    if tuple(corner) != tuple(expected):
        return [f"{label}: corner {tuple(corner)}, paper states {tuple(expected)}"]
    return []


def check_shared_stream(members: dict, pairs, label: str) -> list[str]:
    bad = [(p, hid) for p in pairs for hid, s in members.items() if not crosses(s, p)]
    if bad:
        return [f"{label}: pair {bad[0][0]} does not cross {bad[0][1]}"]
    return []


# ----------------------------------------------------------------------
# learner runs
# ----------------------------------------------------------------------

def check_identifier(final, converged_at, target_id: str, label: str) -> list[str]:
    if converged_at is None or final != target_id:
        return [f"{label}: ended on {final} (converged at {converged_at}), target {target_id}"]
    return []


def check_generator(outputs, items, converged_at, target, label: str) -> list[str]:
    """From the convergence step on, outputs are novel members of the target.

    `items` are the stream items the run read, one per step, from which the
    seen set is rebuilt here.
    """
    if converged_at is None:
        return [f"{label}: generator never converged"]
    seen: set[int] = set()
    for step, (item, output) in enumerate(zip(items, outputs), 1):
        seen.update(item if isinstance(item, tuple) else (item,))
        if step < converged_at:
            continue
        if output is None or output in seen:
            return [f"{label}: step {step} output {output} was already seen"]
        if not target.contains(output):
            return [f"{label}: step {step} output {output} is outside the target"]
    return []
