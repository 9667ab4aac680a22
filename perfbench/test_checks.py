"""The benchmark's own tests: every output check rejects a planted wrong answer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each test gives a check the right answer (it must pass) and a wrong one (it
must be rejected).  The answers are worked out by hand, so these tests need
neither the crosslimit package nor a benchmark run.
"""

from __future__ import annotations

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import tracer  # noqa: E402
from oracle import Lit  # noqa: E402

EVENS = Lit("mod 2 { 0 }")
ODDS = Lit("mod 2 { 1 }")


class LiteralTest(unittest.TestCase):
    def test_membership_and_horizon(self):
        s = Lit("mod 3 { 0 } + { 4 } - { 6 }")
        self.assertEqual([x for x in range(10) if s.contains(x)], [0, 3, 4, 9])
        self.assertEqual(oracle.horizon([s, EVENS]), 6 + 6 + 1)
        with self.assertRaises(ValueError):
            Lit("mod 3 { 0 ")


class HollowTest(unittest.TestCase):
    # pinned core, span 3, core {0}, anchors {1}: dimension |core|*|anchors| = 1
    members = {
        f"h{i + 1}": Lit(f"mod 3 {{ {', '.join(str(r) for r in range(3) if r != i)} }}"
                         f" + {{ 0 }} - {{ 1 }}")
        for i in range(3)
    }

    def test_core_anchor_edge_is_hollow(self):
        self.assertEqual(oracle.check_witness_hollow(self.members, [(0, 1)], "t"), [])

    def test_rejects_non_hollow_edge_set(self):
        # {3, 4} crosses only h1; its closure is all of h1's support
        self.assertTrue(oracle.check_witness_hollow(self.members, [(3, 4)], "t"))

    def test_rejects_edge_set_with_empty_version_space(self):
        self.assertTrue(oracle.check_witness_hollow(self.members, [(2, 4), (3, 5)], "t"))

    def test_punctured_ladder(self):
        ladder = [(0, 1), (2, 1), (4, 1)]
        members, limit = oracle.punctured_members(EVENS, ladder)
        self.assertEqual(oracle.check_witness_hollow(members, ladder, "t", limit), [])
        # one edge inside the base: no puncture crosses it
        members, limit = oracle.punctured_members(EVENS, [(0, 2)])
        self.assertTrue(oracle.check_witness_hollow(members, [(0, 2)], "t", limit))

    def test_rejects_dimension_above_pinned_bound(self):
        self.assertEqual(oracle.check_pinned_bound(2, 2, 1, "t"), [])
        self.assertTrue(oracle.check_pinned_bound(3, 2, 1, "t"))


class EliminabilityTest(unittest.TestCase):
    # h = evens + {1}, g = odds + {0}: an overlapping cover, so g is
    # eliminable from h and the shared points 0, 1 have no partner
    h = Lit("mod 2 { 0 } + { 1 }")
    g = Lit("mod 2 { 1 } + { 0 }")

    def test_overlapping_cover(self):
        self.assertEqual(oracle.check_eliminable(self.h, self.g, True, 0, "t"), [])
        self.assertTrue(oracle.check_eliminable(self.h, self.g, False, None, "t"))

    def test_rejects_covered_witness(self):
        self.assertTrue(oracle.check_eliminable(self.h, self.g, True, 2, "t"))

    def test_disjoint_supports_are_not_eliminable(self):
        self.assertEqual(oracle.check_eliminable(EVENS, ODDS, False, None, "t"), [])
        self.assertTrue(oracle.check_eliminable(EVENS, ODDS, True, 0, "t"))

    def test_defect_number_and_set(self):
        self.assertEqual(
            oracle.check_defect(self.h, self.g, "2", "mod 1 { } + { 0, 1 }", "t"), [])
        self.assertTrue(oracle.check_defect(self.h, self.g, "1", "mod 1 { } + { 0, 1 }", "t"))
        self.assertTrue(oracle.check_defect(self.h, self.g, "2", "mod 1 { } + { 0, 3 }", "t"))

    def test_infinite_defect(self):
        # a strict superset has every extra positive as a defect
        big = Lit("mod 1 { 0 } - { 5 }")
        small = Lit("mod 2 { 0 }")
        self.assertEqual(oracle.check_defect(big, small, "inf", "mod 2 { 1 } - { 5 }", "t"), [])
        self.assertTrue(oracle.check_defect(big, small, "3", "mod 2 { 1 } - { 5 }", "t"))


class ClassificationTest(unittest.TestCase):
    members = {"h1": Lit("mod 2 { 0 } + { 1 }"), "h2": Lit("mod 2 { 1 } + { 0 }"),
               "h3": Lit("mod 1 { 0 } - { 5 }")}

    def test_telltales(self):
        # h1 lies strictly below h3; 3 is in h3 and not in h1
        good = {"h1": [], "h2": [], "h3": [3]}
        self.assertEqual(oracle.check_telltales(self.members, good, "t"), [])
        self.assertTrue(oracle.check_telltales(self.members, {"h1": [], "h2": [], "h3": [2]}, "t"))
        self.assertTrue(oracle.check_telltales(self.members, {"h1": [], "h2": [], "h3": [5]}, "t"))

    def test_diamond(self):
        self.assertEqual(oracle.check_diamond(("yes", "yes", "yes", "yes"), self.members, "t"), [])
        self.assertTrue(oracle.check_diamond(("yes", "yes", "no", "yes"), self.members, "t"))
        self.assertTrue(oracle.check_diamond(("no", "yes", "no", "no"), self.members, "t"))
        finite = dict(self.members, h4=Lit("mod 1 { } + { 2 }"))
        self.assertTrue(oracle.check_diamond(("no", "no", "no", "yes"), finite, "t"))

    def test_rejects_wrong_corner(self):
        paper = ("no", "no", "yes", "yes")
        self.assertEqual(oracle.check_corner(paper, paper, "t"), [])
        self.assertTrue(oracle.check_corner(("no", "yes", "yes", "yes"), paper, "t"))

    def test_rejects_shared_stream_pair_that_misses_a_member(self):
        family = {"h1": EVENS, "h2": Lit("mod 3 { 0 }")}
        self.assertEqual(oracle.check_shared_stream(family, [(0, 1), (6, 5)], "t"), [])
        self.assertTrue(oracle.check_shared_stream(family, [(0, 1), (2, 1)], "t"))


class RunTest(unittest.TestCase):
    def test_identifier(self):
        self.assertEqual(oracle.check_identifier("h3", 4, "h3", "t"), [])
        self.assertTrue(oracle.check_identifier("h2", 4, "h3", "t"))
        self.assertTrue(oracle.check_identifier("h3", None, "h3", "t"))

    def test_generator(self):
        items = [(0, 1), (2, 1), (4, 1), (6, 1)]
        self.assertEqual(oracle.check_generator([0, 8, 8, 10], items, 2, EVENS, "t"), [])
        # 4 was seen at step 3, 3 is outside the target
        self.assertTrue(oracle.check_generator([0, 8, 4, 10], items, 2, EVENS, "t"))
        self.assertTrue(oracle.check_generator([0, 8, 3, 10], items, 2, EVENS, "t"))
        self.assertTrue(oracle.check_generator([0, 8, 8, 10], items, None, EVENS, "t"))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        t = tracer.Tracer()

        def child():
            time.sleep(0.02)

        def parent():
            time.sleep(0.01)
            wrapped_child()

        wrapped_child = t._wrap(child, "space.child")
        t._wrap(parent, "closure.parent")()
        self.assertAlmostEqual(t.self_s["closure.parent"], 0.01, delta=0.008)
        self.assertGreaterEqual(t.self_s["space.child"], 0.02)
        parent_id = next(s[0] for s in t.spans if s[1] == "closure.parent")
        self.assertEqual(next(s[4] for s in t.spans if s[1] == "space.child"), parent_id)


if __name__ == "__main__":
    unittest.main()
