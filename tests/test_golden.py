"""Stored CLI run records replay byte for byte.

Each case is a `crosslimit` command line whose exact stdout is kept under
tests/golden/.  Regenerate the files with `python tests/test_golden.py`
only when a change to the records is intended.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from crosslimit.cli import main

GOLDEN = Path(__file__).parent / "golden"
PINNED = str(GOLDEN / "pinned-core.json")  # pinned_core_class(4, (1, 6), (3,))
FINITE = str(GOLDEN / "finite-supports.json")  # h1 = {2, 5, 7}, h2 = the multiples of 3
# seven random members (moduli 1-5, exceptions below 12) whose ctr_gen stays unknown
RANDOM = str(GOLDEN / "random-seven.json")

CASES = {
    "identify-absence-count-corrupt.json": [
        "identify", "--witness", "co-singleton", "--learner", "absence-count",
        "--target", "6", "--steps", "120", "--window", "10",
        "--corrupt", "3:{1,2}", "--corrupt", "8:{0,9}", "--corrupt", "15:{2,5}"],
    "corrupt-id.json": [
        "corrupt-id", "--target", "5", "--budget", "3", "--steps", "150"],
    "identify-synthetic-text-sampled.json": [
        "identify", "--witness", "overlap-cover", "--learner", "synthetic-text",
        "--target", "h2", "--stream", "sampled:7", "--steps", "100"],
    "identify-eligibility-sampled.json": [
        "identify", "--witness", "overlap-cover", "--learner", "eligibility",
        "--target", "h1", "--stream", "sampled:3", "--steps", "100"],
    "generate-closure-gen-pinned-canonical.json": [
        "generate", "--class", PINNED, "--learner", "closure-gen",
        "--target", "h2", "--steps", "120"],
    "generate-closure-gen-pinned-sampled.json": [
        "generate", "--class", PINNED, "--learner", "closure-gen",
        "--target", "h4", "--stream", "sampled:5", "--steps", "120"],
    "generate-safe-core-gen-augmented.json": [
        "generate", "--witness", "augmented:6", "--learner", "safe-core-gen",
        "--target", "h2", "--steps", "120"],
    "generate-safe-core-gen-pinned-sampled.json": [
        "generate", "--class", PINNED, "--learner", "safe-core-gen",
        "--target", "h3", "--stream", "sampled:9", "--steps", "120"],
    "generate-eventual-core-gen-punctured.json": [
        "generate", "--witness", "punctured:8", "--learner", "eventual-core-gen",
        "--target", "h3", "--stream", "sampled:5", "--steps", "120"],
    "generate-identify-then-generate-cosingleton-corrupt.json": [
        "generate", "--witness", "co-singleton", "--learner", "identify-then-generate",
        "--target", "3", "--steps", "120", "--corrupt", "4:{0,1}", "--corrupt", "9:{5,8}"],
    "generate-identify-then-generate-overlap.json": [
        "generate", "--witness", "overlap-cover", "--learner", "identify-then-generate",
        "--target", "h3", "--stream", "sampled:11", "--steps", "120"],
    "trace-absence-count.csv": [
        "identify", "--witness", "co-singleton", "--learner", "absence-count",
        "--target", "4", "--steps", "40", "--corrupt", "6:{1,3}", "--trace"],
    "trace-identify-then-generate.csv": [
        "generate", "--witness", "overlap-cover", "--learner", "identify-then-generate",
        "--target", "h1", "--stream", "sampled:2", "--steps", "40", "--trace"],
    "classify-cosingleton.json": ["classify", "--witness", "co-singleton"],
    "classify-punctured.json": ["classify", "--witness", "punctured:6"],
    "classify-random-seven.json": ["classify", "--class", RANDOM],
    "dimension-punctured.json": ["dimension", "--witness", "punctured:6"],
    "stream-cosingleton-past-the-slice.txt": [
        "stream", "--witness", "co-singleton", "--target", "50", "--take", "5"],
    "identify-absence-count-past-the-slice.json": [
        "identify", "--witness", "co-singleton", "--learner", "absence-count",
        "--target", "40", "--steps", "80"],
    "generate-safe-core-gen-punctured-sampled.json": [
        "generate", "--witness", "punctured:8", "--learner", "safe-core-gen",
        "--target", "h3", "--stream", "sampled:2", "--steps", "80"],
    "generate-eventual-core-gen-punctured-canonical.json": [
        "generate", "--witness", "punctured:8", "--learner", "eventual-core-gen",
        "--target", "h2", "--steps", "60"],
    "stream-text-sampled-overlap.txt": [
        "stream", "--witness", "overlap-cover", "--target", "h2", "--kind", "text",
        "--sampled", "--take", "60"],
    "stream-informant-overlap.txt": [
        "stream", "--witness", "overlap-cover", "--target", "h1", "--kind", "inf",
        "--take", "30"],
    "stream-text-corrupt-cosingleton.txt": [
        "stream", "--witness", "co-singleton", "--target", "3", "--kind", "text",
        "--corrupt", "2:3", "--corrupt", "5:9", "--take", "30"],
    "stream-finite-wraps.txt": [
        "stream", "--class", FINITE, "--target", "h1", "--take", "20"],
    # below the horizon h1 has no positive, so each even item draws only a negative
    "stream-finite-sampled-past-the-horizon.txt": [
        "stream", "--class", FINITE, "--target", "h1", "--sampled", "--horizon", "2",
        "--take", "20"],
    "shared-six-cell.json": [
        "shared", "--witness", "six-cell", "--family", "h1,h2,h3", "--take", "30"],
    # the pair rule in all four regimes, with a lonely B and a lonely A
    "eliminable-lonely-b.json": [
        "eliminable", "--witness", "augmented:6", "--pair", "h1,h_inf"],
    "eliminable-lonely-a.json": [
        "eliminable", "--witness", "overlap-cover", "--pair", "h1,h2"],
    "eliminable-superset.json": [
        "eliminable", "--witness", "augmented:6", "--pair", "h_inf,h1"],
    "eliminable-disjoint.json": [
        "eliminable", "--witness", "disjoint", "--pair", "hA,hB"],
    "eliminable-non-covering.json": [
        "eliminable", "--witness", "augmented:6", "--pair", "h1,h2"],
    "classify-augmented-barrier.json": ["classify", "--witness", "augmented:8"],
}


def _output(name: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(CASES[name]) == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_record(name):
    assert _output(name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name in sorted(CASES):
        (GOLDEN / name).write_bytes(_output(name))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
