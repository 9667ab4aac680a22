"""Run one crosslimit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload long-runs --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it repeat
the metrics for a reader.  The exit code is 1 when any output check fails.

With `--trace 0` the run reports the end-to-end metrics, all from untraced
rounds.  With `--trace 1` it reports the per-layer metrics: it first times
untraced rounds, then installs the tracer and times traced rounds, and writes
the spans of the last traced round to `.bench_out/`.

Every run makes the seeded inputs, sets up `SETUP_REPEATS` times (fresh
imports included), runs one round of the fixed operation list whose outputs
are checked against the oracle, then repeats that round until `--seconds`
have passed.  Every later round must reproduce the checked outputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
MIN_ROUNDS = 3
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run
TAIL_SAMPLES = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, error: str):
        self.error = error

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error


def import_crosslimit(fresh: bool):
    if fresh:
        for name in [n for n in sys.modules if n == "crosslimit" or n.startswith("crosslimit.")]:
            del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("crosslimit")
    modules = {layer: importlib.import_module(f"crosslimit.{layer}") for layer in tracing.LAYERS}
    return types.SimpleNamespace(package=package, **modules)


def setup(workload: str, seed: int, workdir: str):
    """Imports, seeded input generation, class and learner construction."""
    start = perf_counter()
    cl = import_crosslimit(fresh=True)
    generate, build, _ = WORKLOADS[workload]
    specs = generate(random.Random(f"{workload}:{seed}"), workdir)
    ops = build(cl, specs, workdir)
    return perf_counter() - start, cl, specs, ops


def run_round(ops, tracer=None):
    latencies, results = [], []
    failed = 0
    start = perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        begin = perf_counter()
        try:
            result = op.call()
        except Exception:  # one failed operation must not stop the run
            error = traceback.format_exc()
            print(f"operation {index} ({op.label}) failed:\n{error}", file=sys.stderr)
            result = Failed(error.strip().splitlines()[-1])
            failed += 1
        latencies.append(perf_counter() - begin)
        results.append(result)
    return perf_counter() - start, latencies, results, failed


def tail(latencies: list[float]) -> float:
    """The latency with exactly TAIL_SAMPLES operations slower than it."""
    return sorted(latencies)[len(latencies) - TAIL_SAMPLES - 1]


def tail_percentile(count: int) -> int:
    return (100 * (count - TAIL_SAMPLES)) // count


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: list | None = None
        self.layer_rounds: list[dict] = []  # per-layer metrics of each traced round

    def round(self, ops, tracer=None):
        wall, latencies, results, failed = run_round(ops, tracer)
        self.attempted += len(ops)
        self.failed += failed
        if self.reference is None:
            self.reference = results
        else:
            for index, (got, want) in enumerate(zip(results, self.reference)):
                if got != want:
                    self.problems.append(f"operation {index} ({ops[index].label}) "
                                         f"did not replay identically")
        return wall, latencies

    def rounds(self, ops, seconds: float, minimum: int, tracer=None):
        walls, latencies = [], []
        start = perf_counter()
        while len(walls) < minimum or perf_counter() - start + walls[-1] <= seconds:
            if tracer is not None:
                tracer.reset()
            wall, lat = self.round(ops, tracer)
            walls.append(wall)
            latencies.append(lat)
            if tracer is not None:
                self.layer_rounds.append(tracer.layer_metrics())
        return walls, latencies

    def check(self, cl, specs, ops) -> None:
        _, _, check = WORKLOADS[self.workload]
        kept = [i for i, r in enumerate(self.reference) if not isinstance(r, Failed)]
        self.problems += check(cl, [specs[i] for i in kept], [ops[i] for i in kept],
                               [self.reference[i] for i in kept])

    def end_to_end(self, workdir: str) -> dict:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, cl, specs, ops = setup(self.workload, self.seed, workdir)
            setups.append(seconds)
        self.round(ops)
        self.check(cl, specs, ops)
        walls, latencies = self.rounds(ops, self.seconds, MIN_ROUNDS)
        # Other load on a shared host comes and goes within a run, many times
        # a second and for tens of seconds at a time.  A median over every
        # round of the run evens out what comes and goes within it; a best-of
        # picks one lucky moment and moves more from run to run.  Each
        # operation's latency is its median over the rounds, and the median
        # and tail are taken over the operations of the list.
        typical = [statistics.median(r[i] for r in latencies) for i in range(len(ops))]
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * statistics.median(typical),
            "op_tail_ms": 1000 * tail(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, workdir: str) -> dict:
        _, cl, specs, ops = setup(self.workload, self.seed, workdir)
        self.round(ops)
        self.check(cl, specs, ops)
        plain_walls, plain_latencies = self.rounds(
            ops, UNTRACED_SHARE * self.seconds, 2)
        tracer = tracing.Tracer()
        tracer.install(cl.package)
        try:
            # rebuild under the tracer: streams keep bound methods of the sets
            ops = WORKLOADS[self.workload][1](cl, specs, workdir)
            traced_walls, _ = self.rounds(
                ops, (1 - UNTRACED_SHARE) * self.seconds, 1, tracer)
        finally:
            tracer.uninstall()
        out = os.path.join(ROOT, ".bench_out", f"spans-{self.workload}-seed{self.seed}.csv")
        tracer.write_spans(out)
        metrics = {key: statistics.median(r[key] for r in self.layer_rounds)
                   for key in self.layer_rounds[0]}
        metrics.update(learner_rates(ops, plain_latencies))
        metrics["trace_overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain_walls))
        return metrics


def learner_rates(ops, latencies: list[list[float]]) -> dict:
    """Steps per second of run() time, and how run time grows from N to 2N.

    Both come from untraced rounds.  The growth is taken on each learner's
    longest tier and the median over learners is reported.
    """
    per_op = [statistics.median(r[i] for r in latencies) for i in range(len(ops))]
    runs = [(op.spec, t) for op, t in zip(ops, per_op) if "steps" in op.spec]
    if not runs:
        return {"learners.steps_per_s": 0.0, "learners.step_cost_growth": 0.0}
    tiers: dict[str, dict[int, dict[int, float]]] = {}
    for spec, t in runs:
        tiers.setdefault(spec["learner"], {}).setdefault(spec["tier"], {})[spec["steps"]] = t
    growth = []
    for by_tier in tiers.values():
        times = by_tier[max(by_tier)]
        n = min(times)
        growth.append(times[2 * n] / times[n])
    return {
        "learners.steps_per_s": sum(spec["steps"] for spec, _ in runs) / sum(t for _, t in runs),
        "learners.step_cost_growth": statistics.median(growth),
    }


UNITS = {"_calls": "count", "_self_s": "s", "_ratio": "ratio", "_share": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    special = {"space.lcm_width_sum": "residues", "space.nth_member_index_max": "index",
               "streams.items_drawn": "count", "learners.steps": "count",
               "learners.reads_per_step": "reads/step", "learners.steps_per_s": "steps/s",
               "learners.step_cost_growth": "ratio", "trace_overhead_s": "s"}
    if name in special:
        return special[name]
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    bench = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = bench.per_layer(workdir) if args.trace else bench.end_to_end(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    per_round = len(bench.reference)
    print(f"{args.workload} seed {args.seed}: {per_round} operations per round, "
          f"{bench.attempted // per_round} rounds, tail = p{tail_percentile(per_round)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not bench.problems else 1


if __name__ == "__main__":
    sys.exit(main())
