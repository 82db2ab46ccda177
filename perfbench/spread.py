#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
and prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median, next to the metric's bound in BENCHMARK.json.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --seeds 0 1 2 3 4 [--workloads ellipsoid-chain] [--tag a]

Each run's result line is kept in .perfbench_out/spread-<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--tag", default="spread")
    args = ap.parse_args(argv)

    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed, {values}", flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", f"spread-{args.tag}.json"), "w") as fh:
        json.dump(runs, fh, indent=1)

    print(f"\n{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s} {'bound':>6s}")
    for workload, results in runs.items():
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:16s} {metric['name']:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{(q3 - q1) / med:8.4f} {metric['bound']:6.2f}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload:16s} failed share {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
