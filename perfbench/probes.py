"""Single-call reference figures: the probes quoted in ROADMAP.md, measured again.

    python3 perfbench/probes.py [--repeats 5]

Prints the median wall time of each probe over the repeats.  These are
reference figures for the README, not benchmark metrics.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import crosslimit as cl  # noqa: E402


def absence(steps: int):
    family = cl.CoSingletonClass()
    target = family.member(3)
    stream = cl.corrupt(cl.canonical_contrastive(target), [(5, cl.Pair.of(0, 4))])
    return lambda: cl.run(cl.AbsenceCountIdentifier(family), stream, steps, 20, target=target)


def text_simulation(steps: int):
    overlap = cl.overlapping_cover_class()
    telltales = cl.compute_telltales(overlap)
    target = overlap.members[0]
    learner = cl.TextFromContrastiveIdentifier(cl.EligibilityIdentifier(overlap, telltales))
    return lambda: cl.run(learner, cl.canonical_text(target), steps, 5, target=target)


def closure_gen(steps: int):
    cls = cl.pinned_core_class(3, (0, 3), (1,))
    learner = cl.ClosureGenerator(cls, cl.closure_dimension(cls).dimension)
    target = cls.members[0]
    stream = cl.sampled_contrastive(target, 0, horizon=18)
    return lambda: cl.run(learner, stream, steps, 5, target=target)


def bounded_search():
    cls = cl.pinned_core_class(7, (0, 3), (1,))
    return lambda: cl.closure_dimension(cls, 4, 10)


PROBES = [
    ("absence-count, corrupted star, 200 steps", absence(200)),
    ("absence-count, corrupted star, 1600 steps", absence(1600)),
    ("text simulation, overlap-cover, 50 steps", text_simulation(50)),
    ("text simulation, overlap-cover, 400 steps", text_simulation(400)),
    ("closure-gen, pinned_core(3,(0,3),(1,)), 50 steps", closure_gen(50)),
    ("closure-gen, pinned_core(3,(0,3),(1,)), 400 steps", closure_gen(400)),
    ("closure_dimension(pinned_core(7,(0,3),(1,)), 4, 10)", bounded_search()),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    for label, probe in PROBES:
        times = []
        for _ in range(args.repeats):
            start = perf_counter()
            probe()
            times.append(perf_counter() - start)
        print(f"{label:55s} {1000 * statistics.median(times):10.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
