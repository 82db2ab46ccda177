#!/usr/bin/env python3
"""Benchmark of carleson-lab on three workloads (see README.md here).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload models-chain --seed 0 --seconds 10 --trace 0

The library is imported from ``src/`` of that checkout.  Untraced runs
(``--trace 0``) repeat whole rounds of the workload until ``--seconds`` have
passed (at least one) and report wall_s, cpu_s (medians over rounds),
peak_rss_mb and setup_s (median of five set-ups, four of them in child
processes).  A traced run (``--trace 1``) runs one untraced round, then the
set-up and one round again with spans around every call into the library,
and reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("models-chain", "ellipsoid-cover", "ellipsoid-chain")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def _cap_threads() -> int:
    """At most one thread per usable core, BLAS included.  Must run before
    numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def _import_library():
    """Import carleson_lab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "carleson_lab", "__init__.py")):
        sys.exit(f"perfbench: no carleson_lab sources under {SRC}; run from the root of a checkout")
    sys.path[:0] = [SRC, BENCH_DIR]
    import carleson_lab

    if os.path.dirname(os.path.dirname(os.path.abspath(carleson_lab.__file__))) != SRC:
        sys.exit(f"perfbench: carleson_lab imported from {carleson_lab.__file__}, not {SRC}")
    import workloads

    return workloads


def _source_hash() -> str:
    """Hash of the library's and the benchmark's sources."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "carleson_lab"), BENCH_DIR):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _same_as_earlier_run(workload: str, seed: int, digest: str) -> bool:
    """Compare a round's output digest with the one an earlier run with the
    same sources, workload and seed left behind (or leave it behind)."""
    folder = os.path.join(OUT, "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-{seed}-{_source_hash()}.txt")
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip() == digest
    with open(path + f".{os.getpid()}", "w") as fh:
        fh.write(digest + "\n")
    os.replace(path + f".{os.getpid()}", path)
    return True


def _probe_setup(args) -> float:
    """Set-up time (imports included) measured in a fresh child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _round_seed(seed: int, k: int) -> int:
    return seed + 1_000_003 * k


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cores = _cap_threads()
    workloads = _import_library()
    os.makedirs(OUT, exist_ok=True)
    setup, run_round = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, OUT)
    setup_main = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    rounds = []
    if args.trace == 0:
        setups = [setup_main] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
        began = time.perf_counter()
        while not rounds or time.perf_counter() - began < args.seconds:
            rnd = workloads.Round()
            run_round(rnd, state, _round_seed(args.seed, len(rounds)))
            rounds.append(rnd)
        correct = _same_as_earlier_run(args.workload, args.seed, rounds[0].digest)
        if not correct:
            print("perfbench: outputs differ from an earlier run with the same seed", file=sys.stderr)
        metrics = {
            "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu for r in rounds), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        print(f"# {args.workload} seed {args.seed}: {len(rounds)} round(s), walls "
              f"{[round(r.wall, 3) for r in rounds]}, set-ups {[round(s, 3) for s in setups]}, "
              f"{cores} cores")
    else:
        from spans import Tracer

        plain = workloads.Round()
        run_round(plain, state, args.seed)
        tracer = Tracer()
        tracer.install()
        try:
            state = tracer.span("setup", setup, args.seed, OUT)
            traced = workloads.Round(tracer)
            run_round(traced, state, args.seed)
        finally:
            tracer.uninstall()
        rounds = [plain, traced]
        correct = plain.digest == traced.digest
        if not correct:
            print("perfbench: traced and untraced outputs differ for the same seed", file=sys.stderr)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz"))
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = (traced.wall - plain.wall, "s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        for name, (value, unit) in layer.items():
            print(f"# {args.workload}/{name} = {value:.6g} {unit}")
        print(f"# untraced wall {plain.wall:.3f} s, traced wall {traced.wall:.3f} s, "
              f"{len(tracer.span_name)} spans")

    for rnd in rounds:
        for problem in rnd.problems:
            print(f"# FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
