"""Steadiness check: run every workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 --seconds 30

Run i uses seed FIRST_SEED + i, and the order of the workloads alternates
from one run to the next.  Each run is a separate `run.py --trace 0`
process, started after the previous one has ended.  For every end-to-end
metric of every workload it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median, next to the bound in
BENCHMARK.json.  It also prints the share of failed operations of every run.
The exit code is 1 when a run fails, a check fails, or a spread other than
that of `setup_s` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed_shares: dict[str, list[float]] = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads if i % 2 == 0 else workloads[::-1]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            failed_shares[workload].append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{'workload':18s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload in workloads:
        for name, series in values[workload].items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag = "  over bound"
                ok = False
            print(f"{workload:18s} {name:12s} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bounds[name]:6.2f}{flag}")
        shares = sorted(set(failed_shares[workload]))
        print(f"{workload:18s} failed share of attempted: {shares}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
