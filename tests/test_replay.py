"""Verdict commands replay byte for byte, whatever the class has memoised.

A `HypothesisClass` memoises the meets of its supports and keeps its cell
table, and a set memoises its complement.  A command must print the same
bytes when it runs twice in one process, when it is handed a class object
that earlier library calls have already warmed, and in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

import crosslimit.cli as cli
from crosslimit.classes import build_witness, load_class
from crosslimit.crossing import eliminable
from crosslimit.harness import Bounds, classify
from crosslimit.robust import defect

ZOO = ["disjoint", "punctured:8", "augmented:8", "overlap-cover", "six-cell"]

# pairwise-coprime moduli, half of each modulus's residues: intersections
# lift to lcms up to 16016
COPRIME = {
    "hypotheses": [
        {"id": "h1", "support": "mod 7 { 0, 2, 5 } + { 3 } - { 7 }"},
        {"id": "h2", "support": "mod 11 { 1, 4, 5, 8, 10 } + { 2, 13 } - { 4 }"},
        {"id": "h3", "support": "mod 13 { 0, 3, 6, 7, 9, 12 } + { 1 } - { 16, 19 }"},
        {"id": "h4", "support": "mod 16 { 1, 2, 6, 9, 11, 12, 14, 15 } + { 0, 3 } - { 17 }"},
    ],
    "uus": False,
}


@pytest.fixture(scope="module")
def commands(tmp_path_factory) -> list[list[str]]:
    path = tmp_path_factory.mktemp("replay") / "coprime.json"
    path.write_text(json.dumps(COPRIME))
    cls = ["--class", str(path)]
    out = [["classify", "--witness", w] for w in ZOO]
    out += [["classify", *cls], ["eliminable", *cls, "--pair", "h1,h3"],
            ["defect", *cls, "--pair", "h2,h4", "--verify"]]
    return out


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue()


def _load(argv: list[str]):
    flag, spec = argv[1], argv[2]
    return load_class(spec) if flag == "--class" else build_witness(spec)


def _warm_up(cls) -> None:
    """Library calls that fill the class's memos and its supports' complements."""
    classify(cls)
    classify(cls, Bounds(horizon=16))
    for h, g in itertools.permutations(cls.members[:3], 2):
        if h.support != g.support:
            eliminable(h, g)
            defect(h, g)


def test_commands_replay_in_one_process(commands):
    first = [_run(argv) for argv in commands]
    assert [_run(argv) for argv in commands] == first


def test_commands_replay_on_warm_classes(commands, monkeypatch):
    fresh = [_run(argv) for argv in commands]
    for argv, expected in zip(commands, fresh):
        cls = _load(argv)
        _warm_up(cls)
        monkeypatch.setattr(cli, "load_class", lambda _path, cls=cls: cls)
        monkeypatch.setattr(cli, "build_witness", lambda _spec, cls=cls: cls)
        assert _run(argv) == expected, argv
        assert _run(argv) == expected, argv  # and again on the same object


def test_commands_replay_in_a_fresh_interpreter(commands):
    code = (
        "import json, sys, contextlib, io\n"
        "from crosslimit.cli import main\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        main(argv)\n"
        "    outs.append(buf.getvalue())\n"
        "print(json.dumps(outs))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [_run(argv) for argv in commands]
