"""The demo scripts print exactly their stored output."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    goldens = sorted((ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert [p.stem for p in goldens] == [d.stem for d in DEMOS] and len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_byte_identical(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                          timeout=60, check=True)
    assert done.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
