"""CLI surface: every subcommand produces its documented output shape."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crosslimit.classes import overlapping_cover_class, save_class
from crosslimit.cli import build_parser, main
from crosslimit.space import MAX_MODULUS


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_regions(capsys):
    code, out = run_cli(capsys, "regions", "--witness", "disjoint", "--pair", "hA,hB")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["A"] == "mod 1 { }"
    assert payload["B"] == "mod 2 { 0 }"


def test_eliminable(capsys):
    code, out = run_cli(capsys, "eliminable", "--witness", "disjoint", "--pair", "hA,hB")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["eliminable"] is False
    assert payload["regime"] == "disjoint"


def test_shared_family(capsys):
    code, out = run_cli(capsys, "shared", "--witness", "six-cell", "--family", "h1,h2,h3")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["exists"] is True
    assert len(payload["prefix"]) == 12


def test_shared_pair_none(capsys):
    code, out = run_cli(
        capsys, "--truncation", "5", "shared", "--witness", "co-singleton",
        "--family", "h0,h1",
    )
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["exists"] is False


def test_dimension(capsys):
    code, out = run_cli(
        capsys, "dimension", "--witness", "punctured:10", "--max-size", "8",
        "--vertex-horizon", "24",
    )
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["outcome"] == "at-least"
    assert payload["dimension"] == 8


def test_stream_with_corruption(capsys):
    code, out = run_cli(
        capsys, "stream", "--target", "3", "--kind", "ctr", "--take", "6",
        "--corrupt", "3:{0,4}",
    )
    assert code == 0
    assert out.splitlines() == [
        "{0,3}", "{1,3}", "{0,4}", "{2,3}", "{3,4}", "{3,5}",
    ]


def test_stream_text(capsys):
    code, out = run_cli(
        capsys, "stream", "--witness", "disjoint", "--target", "hA",
        "--kind", "text", "--take", "4",
    )
    assert code == 0
    assert out.splitlines() == ["0", "2", "4", "6"]


def test_sampled_informant_stream_is_a_usage_error(capsys):
    # there is no sampled informant stream; a text stream must not stand in for it
    code, out = run_cli(capsys, "stream", "--target", "3", "--kind", "inf",
                        "--sampled", "--take", "5")
    assert (code, out) == (2, "")
    code, out = run_cli(capsys, "stream", "--target", "3", "--kind", "inf", "--take", "2")
    assert code == 0 and out.splitlines() == ["0,1", "1,1"]


def test_identify(capsys):
    code, out = run_cli(
        capsys, "identify", "--witness", "overlap-cover", "--learner", "eligibility",
        "--target", "h2", "--stream", "sampled:3", "--steps", "30", "--window", "5",
    )
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["final_output"] == "h2"
    assert payload["converged_at"] is not None


def test_identify_trace_csv(capsys):
    code, out = run_cli(
        capsys, "identify", "--witness", "co-singleton", "--learner", "absence-count",
        "--target", "4", "--steps", "10", "--window", "3", "--trace",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "step" in header and "output" in header and "absence_counts" in header


def test_generate(capsys):
    code, out = run_cli(
        capsys, "generate", "--witness", "augmented:5", "--learner", "safe-core-gen",
        "--target", "h2", "--steps", "20", "--window", "5",
    )
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["converged_at"] == 1


def test_defect_with_verification(capsys):
    code, out = run_cli(
        capsys, "--horizon", "12", "defect", "--witness", "disjoint",
        "--pair", "hA,hB", "--verify",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["kappa"] == "0"
    assert doc["ok"] is True


def test_corrupt_id(capsys):
    code, out = run_cli(
        capsys, "corrupt-id", "--witness", "co-singleton", "--target", "3",
        "--budget", "5", "--steps", "200",
    )
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["final_output"] == "h3"
    assert len(payload["injections"]) == 5


@pytest.mark.parametrize("witness", ["punctured:6", "augmented:6", "overlap-cover"])
def test_absence_count_runs_only_over_the_co_singleton_family(capsys, witness):
    code, out = run_cli(capsys, "identify", "--witness", witness,
                        "--learner", "absence-count", "--target", "3")
    assert (code, out) == (2, "")


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "--witness", "disjoint")
    doc = json.loads(out)
    assert code == 0
    assert doc["ctr_id"]["status"] == "no"
    assert doc["txt_id"]["status"] == "yes"


def test_classify_text_format(capsys):
    code, out = run_cli(capsys, "--format", "text-summary", "classify",
                        "--witness", "augmented:6")
    assert code == 0
    assert "ctr_gen: yes (safe-core)" in out


def test_reproduce(capsys):
    code, out = run_cli(capsys, "--format", "text-summary", "reproduce", "ex61")
    assert code == 0
    assert "ok" in out


def test_class_file_round_trip(tmp_path, capsys):
    path = tmp_path / "overlap.json"
    save_class(overlapping_cover_class(), str(path))
    code, out = run_cli(capsys, "classify", "--class", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["ctr_id"]["status"] == "yes"


def test_telltales_past_the_default_horizon(tmp_path, capsys):
    # the tell-tale of `all` against `most` is 100, past the horizon of 64
    path = tmp_path / "all-most-evens.json"
    path.write_text(json.dumps({"hypotheses": [
        {"id": "all", "support": "mod 1 { 0 } - { 301 }"},
        {"id": "most", "support": "mod 1 { 0 } - { 100, 301 }"},
        {"id": "evens", "support": "mod 2 { 0 }"},
    ]}))
    code, out = run_cli(capsys, "classify", "--class", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["bounds"]["horizon"] == 64
    assert doc["txt_id"] == {"status": "yes", "mechanism": "telltales",
                             "witness": {"all": [1, 100], "most": [], "evens": []}}
    assert doc["ctr_id"] == {"status": "no", "mechanism": "barrier-pair",  # both miss 301
                             "witness": {"pair": ["most", "evens"], "regime": "non-covering"}}
    code, _ = run_cli(capsys, "identify", "--class", str(path), "--learner", "eligibility",
                      "--target", "most")
    assert code == 0


def test_punctured_witness_at_a_huge_horizon_enumerates_nothing():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "crosslimit.cli", "classify", "--witness", "punctured:8",
         "--horizon", "100000000"],
        capture_output=True, text=True, env=env, timeout=10, check=True,
    )
    witness = json.loads(done.stdout)["txt_id"]["witness"]
    assert witness["containing_support"] == "mod 2 { 0 } - { 200000000 }"
    assert witness["horizon"] == 100000000


def test_huge_horizon_is_rejected_before_any_stream_is_built(capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "crosslimit.cli", "defect", "--witness", "disjoint",
         "--pair", "hA,hB", "--verify", "--horizon", "100000000"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 2 and time.perf_counter() - start < 2
    assert done.stdout == ""
    assert done.stderr == ("error: --horizon 100000000 is above MAX_MODULUS = 1048576; "
                           "sampled streams list every natural below it\n")
    sampled = (["identify", "--witness", "overlap-cover", "--learner", "eligibility",
                "--target", "h2", "--stream", "sampled:3", "--steps", "10"],
               ["stream", "--target", "3", "--kind", "txt", "--sampled", "--take", "3"])
    for argv in sampled:  # the same check guards the sampled streams of runs
        assert main(["--horizon", str(MAX_MODULUS + 1), *argv]) == 2
        assert "error: --horizon" in capsys.readouterr().err
        assert main(["--horizon", "64", *argv]) == 0
        capsys.readouterr()


def test_equal_supports_in_a_class_file_classify(tmp_path, capsys):
    # two ids for one finite set: no identifier can name both, and the two
    # share every presentation, so the meet is a finite-intersection obstruction
    path = tmp_path / "twins.json"
    path.write_text(json.dumps({"hypotheses": [
        {"id": "a", "support": "mod 1 { } + { 0, 1, 2 }"},
        {"id": "b", "support": "mod 1 { } + { 0, 1, 2 }"}]}))
    code, out = run_cli(capsys, "classify", "--class", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["txt_id"] == {"status": "no", "mechanism": "equal-supports",
                             "witness": {"pair": ["a", "b"]}}
    assert (doc["ctr_id"]["status"], doc["ctr_id"]["mechanism"]) == ("no", "txt-id-failure")
    assert (doc["ctr_gen"]["status"], doc["ctr_gen"]["mechanism"]) == (
        "no", "finite-intersection-obstruction")


def test_verify_runs_acceptance_suite(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines)


@pytest.mark.parametrize("argv, message", [
    (["generate", "--witness", "co-singleton", "--learner", "absence-count", "--target", "3"],
     "error: absence-count is an identifier, not a generator"),
    (["identify", "--witness", "augmented:6", "--learner", "safe-core-gen", "--target", "h2"],
     "error: safe-core-gen is a generator, not an identifier"),
], ids=("identifier", "generator"))
def test_learner_of_the_other_role_is_named(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == message


def test_usage_errors_return_2(capsys):
    code, _ = run_cli(capsys, "regions", "--witness", "disjoint", "--pair", "hA")
    assert code == 2
    code, _ = run_cli(capsys, "identify", "--witness", "disjoint",
                      "--learner", "nonsense", "--target", "hA")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["classify", "--witness", "disjoint", "--horizon", "-5"], "--horizon"),
    (["--horizon", "-1", "classify", "--witness", "disjoint"], "--horizon"),
    (["classify", "--witness", "punctured", "--truncation", "-2"], "--truncation"),
    (["classify", "--witness", "disjoint", "--budget", "-1"], "--budget"),
    (["dimension", "--witness", "punctured:4", "--max-size", "-1"], "--max-size"),
    (["dimension", "--witness", "punctured:4", "--vertex-horizon", "-1"], "--vertex-horizon"),
    (["stream", "--witness", "co-singleton", "--target", "3", "--take", "-3"], "--take"),
    (["shared", "--witness", "six-cell", "--family", "h1,h2", "--take", "-1"], "--take"),
    (["defect", "--witness", "disjoint", "--pair", "hA,hB", "--verify", "--horizon", "-3"],
     "--horizon"),
    (["identify", "--witness", "disjoint", "--learner", "eligibility", "--target", "hA",
      "--steps", "-4"], "--steps"),
    (["identify", "--witness", "disjoint", "--learner", "eligibility", "--target", "hA",
      "--window", "-1"], "--window"),
    (["corrupt-id", "--target", "3", "--steps", "-1"], "--steps"),
])
def test_negative_counts_and_bounds_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert f"error: argument {flag}: must not be negative" in captured.err


def test_seed_may_be_negative(capsys):
    code, out = run_cli(capsys, "--seed", "-4", "stream", "--witness", "co-singleton",
                        "--target", "3", "--take", "2", "--sampled")
    assert code == 0 and len(out.splitlines()) == 2


def test_malformed_class_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"hypotheses": [{"id": "x", "support": 5}]}')
    code = main(["classify", "--class", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: hypothesis 'x': ")


@pytest.mark.parametrize("supports, improper", [
    (["mod 2 { 0 }", "mod 1 { }"], "h2"),  # empty
    (["mod 1 { 0 }", "mod 2 { 0 }", "mod 3 { 0 }"], "h1"),  # all of X, every meet infinite
])
def test_classify_rejects_an_empty_or_full_member(tmp_path, capsys, supports, improper):
    # no contrastive data exists for such a target, whatever the meets are
    path = tmp_path / "improper.json"
    path.write_text(json.dumps({"hypotheses": [{"id": f"h{i + 1}", "support": s}
                                               for i, s in enumerate(supports)]}))
    assert main(["classify", "--class", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {improper} is not proper nontrivial\n"


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    sequence = [
        ["stream", "--target", "3", "--kind", "ctr", "--take", "6", "--corrupt", "3:{0,4}"],
        ["stream", "--target", "3", "--kind", "ctr", "--take", "6"],
        ["--horizon", "5", "dimension", "--witness", "disjoint", "--max-size", "2"],
        ["dimension", "--witness", "disjoint", "--max-size", "2"],
        ["regions", "--witness", "disjoint", "--pair", "hA"],
        ["eliminable", "--witness", "disjoint", "--pair", "hA,hB"],
    ]
    alone = []
    for argv in sequence:
        build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    parser = build_parser()
    assert [run_cli(capsys, *argv) for argv in sequence] == alone
    assert build_parser() is parser
    assert alone[0] != alone[1] and alone[2] != alone[3]  # the flags do change the output
    assert alone[4][0] == 2
