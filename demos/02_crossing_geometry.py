"""Crossing-edge geometry: when can one hypothesis impersonate another?

A contrastive observation for a target h is a pair with exactly one
endpoint in supp(h).  A rival g survives every observation for h exactly
when each h-positive sits on an edge crossing both cuts; partitioning X into
the four membership regions A/B/C/D (a pair's pattern cells) makes that a
pair of emptiness tests.
"""

from crosslimit import (
    Hypothesis,
    SymbolicSet,
    co_singleton_class,
    disjoint_support_class,
    eliminable,
    augmented_class,
    overlapping_cover,
    pair_cells,
    shared_presentation_pair,
    validate,
)
from crosslimit.crossing import REGIONS, common_crossing_edges

# the four-point configuration: supports {1,2} and {1,3}
h = Hypothesis("h", SymbolicSet.finite({1, 2}))
g = Hypothesis("g", SymbolicSet.finite({1, 3}))
cells = pair_cells(h, g)
for name, alpha in REGIONS.items():
    print(f"region {name}: {cells.cell(alpha)}")
print("common crossing edges on {1..4}:",
      sorted(str(e) for e in common_crossing_edges(h, g, range(1, 5))))

# the three barrier regimes
print("\nbarrier regimes:")
inner = Hypothesis("inner", SymbolicSet.residue_class(2, {0}).difference(SymbolicSet.finite({0})))
outer = Hypothesis("outer", SymbolicSet.residue_class(2, {0}))
print("  subset pair      ->", eliminable(inner, outer).regime)
print("  disjoint pair    ->", eliminable(*disjoint_support_class().members).regime)
aug = augmented_class(4)
print("  augmented pair   ->", eliminable(aug.by_id("h1"), aug.by_id("h2")).regime)

# overlapping covers are exactly the incomparable pairs with no barrier
p = Hypothesis("p", SymbolicSet.residue_class(2, {0}).union(SymbolicSet.finite({1})))
q = Hypothesis("q", SymbolicSet.residue_class(2, {1}).union(SymbolicSet.finite({0})))
print("\noverlapping cover p,q:", overlapping_cover(p, q))
print("eliminable(p, q):", eliminable(p, q).eliminable, "- witness", eliminable(p, q).witness)

# mutual non-eliminability gives one stream valid for both targets
ha, hb = disjoint_support_class().members
stream = shared_presentation_pair(ha, hb)
prefix = stream.prefix(8)
print("\nshared stream for the disjoint pair:", [str(x) for x in prefix.items])
for target in (ha, hb):
    print(f"  clean for {target.id}?", validate(prefix, target, horizon=8).clean)

# the co-singleton family is the opposite extreme: one shared edge only
fam = co_singleton_class()
print("\nco-singleton pair vertex set:", pair_cells(fam.member(2), fam.member(5)).gamma())
print("shared stream exists?", shared_presentation_pair(fam.member(2), fam.member(5)) is not None)
