"""The benchmark's three workloads, run through carleson_lab's public functions.

Each workload has a set-up (domain specs, kernel models with their moment
tables, fixed query sets) and a round: a fixed list of operations whose
inputs come from the round's seed.  A Round times each operation, runs its
checks outside the timed interval, and digests its outputs for the
determinism check.

- models-chain: the disk and the 2-ball, where kernels and distances are
  closed forms.  Time goes to Mobius Berezin sampling, polydisk mass Monte
  Carlo, packing loops and the verdict plumbing; the ellipsoid distance
  bracket, the series kernel and projection frames do no work here.
- ellipsoid-cover: certified covers and overlap counts on the (1,2)
  ellipsoid (criterion 6's computation); nearly all of the time is in
  kobayashi.ball_relation, in small calls during greedy acceptance and in
  large batches while counting.
- ellipsoid-chain: the series kernel on the (1,2) ellipsoid, through the
  CLI's kernel-check and through kernel rows; no distance oracle.

Left out, because they fail on some seeds (see CHANGES.md): the
geometric verdict of the 0.8-packing on the disk, and every minimal frame
at seeded points of the ellipsoid (packings, separations, decompositions,
sequence measures).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time

import numpy as np

from carleson_lab import bergman, carleson, cli, domains, sequences

import checks

GALLERY = (
    "lebesgue",
    "packing0.3",
    "packing0.5",
    "packing0.8",
    "ray+",
    "ray-",
    "cluster",
    "density(1-d)",
    "density(1/(1-d))",
    "atom",
)
# the disk's 0.8-packing reads Inconclusive (geometric) on some seeds
LEFT_OUT = {"disk": ("packing0.8",), "ball2": ()}
CANDIDATES = 12000
QUERIES = 10000
ROW_POINTS = 1 << 16
ROW_CENTERS = 16
KERNEL_CHECK_SAMPLES = 1 << 18


# ---------------------------------------------------------------------------
# rounds


def digest_update(h, obj) -> None:
    """Feed a canonical byte form of an output into a hash."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, float, complex, str, type(None), np.generic)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}[".encode())
        for item in obj:
            digest_update(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"map{len(obj)}{{".encode())
        for key in sorted(obj, key=repr):
            digest_update(h, key)
            digest_update(h, obj[key])
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if not callable(value):  # a density callable has no stable bytes
                digest_update(h, value)
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


class Round:
    """One pass over a workload's operations.

    ``wall`` and ``cpu`` sum the operations alone; checks and digests run
    outside the timed intervals.  An operation that raises, or whose check
    reports a problem, counts as failed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._hash = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def op(self, name: str, fn, check=None):
        self.attempted += 1
        call = fn if self.tracer is None else (lambda: self.tracer.span("op." + name, fn))
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, the round goes on
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0
        if self.tracer is not None:
            self.tracer.active = False
        try:
            digest_update(self._hash, name)
            digest_update(self._hash, out)
            found = check(out) if check is not None else []
        except Exception as exc:  # a check that cannot run fails the operation
            found = [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            if self.tracer is not None:
                self.tracer.active = True
        if found:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in found]
        return out


def _lam0(spec) -> float:
    return abs(float(domains.defining_value(spec, domains.anchor_point(spec))))


def _cover_sample(spec, result) -> np.ndarray:
    """kobayashi_cover's default coverage sample: the leading test points of
    its candidate stream."""
    return domains.quasi_interior(spec, QUERIES, seed=result.seed, level_floor=result.level)


# ---------------------------------------------------------------------------
# models-chain


def models_setup(seed: int, outdir: str) -> dict:
    disk, ball = domains.unit_disk(), domains.unit_ball(2)
    queries = domains.quasi_interior(ball, QUERIES, seed=seed + 1, level_floor=0.1 * _lam0(ball))
    return {
        "domains": (("disk", disk, bergman.kernel_model(disk)), ("ball2", ball, bergman.kernel_model(ball))),
        "queries": queries,
    }


def models_round(rnd: Round, st: dict, seed: int) -> None:
    config = carleson.CarlesonConfig(r=0.3, seed=seed)
    for label, spec, model in st["domains"]:
        suite = rnd.op(
            f"{label}.measure_suite",
            lambda: sequences.standard_measure_suite(spec, seed=seed),
            checks.suite_packings,
        )
        for name in (g for g in GALLERY if g not in LEFT_OUT[label]):
            mu = dict(suite or ())[name] if suite else None
            rnd.op(
                f"{label}.carleson_test[{name}]",
                lambda: carleson.carleson_test(spec, model, mu, config),
                lambda rep: checks.gallery_report(name, rep, mu),
            )
    _, ball, model = st["domains"][1]
    r = 0.3
    cover = rnd.op(
        "ball2.kobayashi_cover",
        lambda: carleson.kobayashi_cover(ball, r, seed=seed, candidates=CANDIDATES, test_count=QUERIES),
        lambda res: checks.ball_cover(res, _cover_sample(ball, res)),
    )
    big_r = (1.0 + r) / 2.0
    rnd.op(
        "ball2.overlap_count_many",
        lambda: carleson.overlap_count_many(ball, cover.centers, big_r, st["queries"]),
        lambda counts: checks.counts_equal(counts, st["queries"], cover.centers, big_r),
    )
    sep = 0.5
    pack = rnd.op(
        "ball2.greedy_packing",
        lambda: sequences.greedy_packing(ball, sep, level_floor=0.02, seed=seed),
        lambda res: checks.separated(res.sequence.points, sep),
    )
    rnd.op(
        "ball2.thm42_pipeline",
        lambda: sequences.thm42_pipeline(ball, model, pack.sequence, config),
        lambda rep: checks.thm42_report(rep, pack.sequence.points, config.r),
    )


# ---------------------------------------------------------------------------
# ellipsoid-cover


def _ell12():
    return domains.complex_ellipsoid((1, 2), (1.0, 1.0))


def cover_setup(seed: int, outdir: str) -> dict:
    spec = _ell12()
    queries = domains.quasi_interior(spec, QUERIES, seed=seed + 1, level_floor=0.1 * _lam0(spec))
    return {"spec": spec, "queries": queries}


def cover_round(rnd: Round, st: dict, seed: int) -> None:
    spec, queries = st["spec"], st["queries"]
    for r in (0.3, 0.5):
        cover = rnd.op(
            f"kobayashi_cover[r={r}]",
            lambda: carleson.kobayashi_cover(spec, r, seed=seed, candidates=CANDIDATES, test_count=QUERIES),
            lambda res: checks.ellipsoid_cover(res, _cover_sample(spec, res)),
        )
        big_r = (1.0 + r) / 2.0
        rnd.op(
            f"overlap_count_many[R={big_r}]",
            lambda: carleson.overlap_count_many(spec, cover.centers, big_r, queries),
            lambda counts: checks.counts_sandwiched(counts, queries, cover.centers, big_r),
        )


# ---------------------------------------------------------------------------
# ellipsoid-chain


def chain_setup(seed: int, outdir: str) -> dict:
    spec = _ell12()
    spec_path = os.path.join(outdir, "ell12.json")
    domains.save_spec(spec, spec_path)
    return {"spec": spec, "spec_path": spec_path, "outdir": outdir, "model": bergman.kernel_model(spec, degree=60)}


def _kernel_check(st: dict, seed: int) -> dict:
    out = os.path.join(st["outdir"], f"kernel-check-{os.getpid()}-{seed}")
    argv = [
        "kernel-check", "--domain", st["spec_path"], "--degree", "60",
        "--samples", str(KERNEL_CHECK_SAMPLES), "--seed", str(seed), "--out", out,
    ]
    try:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"carleson-lab kernel-check exited {code}")
        with open(os.path.join(out, "kernel_check.json")) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def chain_round(rnd: Round, st: dict, seed: int) -> None:
    spec, model = st["spec"], st["model"]
    rnd.op("cli.kernel-check", lambda: _kernel_check(st, seed), checks.kernel_check)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z0s = 0.5 * domains.random_interior(spec, ROW_CENTERS, rng)
    pts = domains.quasi_uniform(spec, ROW_POINTS, seed=seed + 1)
    rnd.op(
        "kernel_row",
        lambda: [bergman.kernel_row(model, z0, pts) for z0 in z0s],
        lambda rows: checks.moment_table(model.table) + checks.kernel_rows(rows, z0s, pts),
    )


WORKLOADS = {
    "models-chain": (models_setup, models_round),
    "ellipsoid-cover": (cover_setup, cover_round),
    "ellipsoid-chain": (chain_setup, chain_round),
}
