"""Batch experiment driver.

One command per process; every artifact embeds the config echo and the library
version, and re-running with identical arguments reproduces identical bytes.
Exit codes: 0 success, 1 validation error, 2 numeric/resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, bergman, carleson, domains, geometry, measures, sequences, tables
from .errors import (
    CapabilityError,
    CarlesonLabError,
    ConfigError,
    InputError,
    NumericError,
    ResourceError,
)

_MAX_SAMPLES = 10**8
_MAX_DEGREE = 200


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); validation errors are exit 1
        raise InputError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="carleson-lab", description=__doc__)
    p.add_argument("--version", action="version", version=f"carleson-lab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, measure=False, r=None, degree=None, samples=None):
        sp.add_argument("--domain", required=True, help="domain spec JSON file")
        sp.add_argument("--out", default=".", help="output directory")
        if measure:
            sp.add_argument(
                "--measure", default="lebesgue", help="suite measure name or atom CSV file"
            )
        if r is not None:
            sp.add_argument("--r", type=float, default=r)
        if degree is not None:
            sp.add_argument("--degree", type=int, default=degree)
        if samples is not None:  # the commands that draw samples, and only they, take a seed
            sp.add_argument("--samples", type=int, default=samples)
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("domain-info", help="validated domain summary")
    common(sp)

    sp = sub.add_parser("frame", help="minimal frame at a point")
    common(sp)
    sp.add_argument("--point", required=True, help="interleaved reals x1,y1,x2,y2,...")

    sp = sub.add_parser("kernel-check", help="kernel accuracy and reproducing residuals")
    common(sp, degree=60, samples=1 << 18)

    sp = sub.add_parser("berezin", help="Berezin transform on the standard grid")
    common(sp, measure=True, r=0.3, samples=1 << 16)

    sp = sub.add_parser("carleson", help="three-criteria Carleson test")
    common(sp, measure=True, r=0.3, samples=1 << 16)

    sp = sub.add_parser("cover", help="greedy Kobayashi ball cover")
    common(sp, r=0.3, samples=12000)

    sp = sub.add_parser("decompose", help="greedy separated decomposition")
    common(sp, r=0.5)
    sp.add_argument("--points", required=True, help="sequence CSV file")

    sp = sub.add_parser("pack", help="greedy separated packing (--r is the separation)")
    common(sp, r=0.5, samples=4096)
    sp.add_argument("--level", type=float, default=0.02, help="core level floor")

    sp = sub.add_parser("thm42", help="sequence-measure Carleson pipeline")
    common(sp, r=0.3, samples=1 << 16)
    sp.add_argument("--points", default=None, help="sequence CSV (default: packed)")
    sp.add_argument("--sep", type=float, default=0.5, help="packing separation when generating")
    return p


def _validate(args) -> None:
    r = getattr(args, "r", None)
    if r is not None and not 0.0 < r < 1.0:
        raise InputError(f"--r must lie in (0,1), got {r}")
    sep = getattr(args, "sep", None)
    if sep is not None and not 0.0 < sep < 1.0:
        raise InputError(f"--sep must lie in (0,1), got {sep}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise InputError(f"--seed must be >= 0, got {seed}")
    samples = getattr(args, "samples", None)
    if samples is not None and not 0 < samples <= _MAX_SAMPLES:
        raise InputError(f"--samples must lie in [1, {_MAX_SAMPLES}], got {samples}")
    degree = getattr(args, "degree", None)
    if degree is not None and not 0 < degree <= _MAX_DEGREE:
        raise InputError(f"--degree must lie in [1, {_MAX_DEGREE}], got {degree}")


def _resolve_measure(spec, name: str, seed: int):
    if name.endswith(".csv"):
        if not os.path.exists(name):
            raise InputError(f"measure file not found: {name}")
        return measures.atoms_from_csv(spec, name)
    return sequences.named_measure(spec, name, seed=seed)


def _parse_point(spec, text: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--point must be comma-separated reals: {exc}") from None
    if len(vals) != 2 * spec.dim:
        raise InputError(f"--point needs {2 * spec.dim} reals for dimension {spec.dim}")
    return domains.to_complex(np.asarray(vals))


def _write_json(path, payload: dict) -> None:
    """Write the payload as standard JSON, which has no inf or nan."""
    payload = {"version": __version__, **payload}
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{os.path.basename(path)} not written: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _echo(args, skip=("command", "out")) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# ---------------------------------------------------------------------------
# command bodies


def _cmd_domain_info(args, spec, out) -> int:
    anchor = domains.anchor_point(spec)
    info = {
        "config": _echo(args),
        "kind": spec.kind,
        "dim": spec.dim,
        "exponents": list(spec.exponents) if spec.exponents else None,
        "semi_axes": list(spec.semi_axes) if spec.semi_axes else None,
        "box": list(spec.box),
        "anchor_value": float(domains.defining_value(spec, anchor)),
        "inradius": float(domains.inradius(spec)),
        "box_nu_volume": float(domains.box_nu_volume(spec)),
    }
    _write_json(os.path.join(out, "domain_info.json"), info)
    print(f"{spec.kind} dim={spec.dim} inradius={info['inradius']:.6g}")
    return 0


def _cmd_frame(args, spec, out) -> int:
    q = _parse_point(spec, args.point)
    frame = geometry.minimal_frame(spec, q)
    header = ["i", "sigma"] + [f"e_{part}{j + 1}" for part in "xy" for j in range(spec.dim)]
    rows = [[i, s, *e.real, *e.imag] for i, (s, e) in enumerate(zip(frame.sigma, frame.basis))]
    tables.write(os.path.join(out, "frame.csv"), header, rows)
    sigma = [float(s) for s in frame.sigma]
    summary = {"config": _echo(args), "sigma": sigma, "unique": bool(frame.unique)}
    _write_json(os.path.join(out, "frame_summary.json"), summary)
    print("sigma = (" + ", ".join(f"{s:.6f}" for s in frame.sigma) + ")")
    return 0


def _cmd_kernel_check(args, spec, out) -> int:
    model = bergman.kernel_model(spec, degree=args.degree)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    results = {"config": _echo(args), "variant": model.variant}

    if domains.is_ball(spec):
        series = bergman.reinhardt_series_model(spec, degree=args.degree)
        z = 0.7 * domains.random_interior(spec, 500, rng)
        w = 0.7 * domains.random_interior(spec, 500, rng)
        exact = np.array([bergman.kernel(model, zi, wi) for zi, wi in zip(z, w)])
        approx = np.array([bergman.kernel(series, zi, wi) for zi, wi in zip(z, w)])
        rel = float(np.max(np.abs(approx - exact) / np.abs(exact)))
        results["series_max_rel_error"] = rel
        print(f"series vs closed kernel: max rel error {rel:.3e}")

    from .polynomials import random_polynomial

    pts = domains.quasi_uniform(spec, args.samples, seed=args.seed)
    residuals = []
    for _ in range(5):
        poly = random_polynomial(spec.dim, 5, rng)
        z0 = 0.5 * domains.random_interior(spec, 1, rng)[0]
        residuals.append(bergman.reproduce_check(model, poly, z0, points=pts).residual)
    results["reproduce_max_residual"] = float(max(residuals))
    _write_json(os.path.join(out, "kernel_check.json"), results)
    print(f"reproducing residual (5 polynomials): max {max(residuals):.3e}")
    return 0


def _cmd_berezin(args, spec, out) -> int:
    mu = _resolve_measure(spec, args.measure, seed=args.seed)
    model = bergman.kernel_model(spec)
    config = carleson.CarlesonConfig(r=args.r, seed=args.seed, berezin_samples=args.samples)
    grid = carleson.build_grid(spec, config)
    base = carleson.nu_uniform_base(spec, mu, config)
    trace = carleson.criterion_berezin(model, mu, grid, config, base)
    header = ["index", "kind", "delta", *tables.coord_header(spec.dim), "value", "stderr"]
    rows = [
        [idx, gp.kind, gp.delta, *domains.to_real(gp.point), value, stderr]
        for idx, (gp, value, stderr) in enumerate(zip(grid, trace.values, trace.stderr))
    ]
    tables.write(os.path.join(out, "berezin.csv"), header, rows)
    _write_json(
        os.path.join(out, "berezin_summary.json"),
        {"config": _echo(args), "sup": trace.sup, "points": len(grid)},
    )
    print(f"Berezin transform at {len(grid)} grid points: sup {trace.sup:.6g}")
    return 0


def _cmd_carleson(args, spec, out) -> int:
    mu = _resolve_measure(spec, args.measure, seed=args.seed)
    model = bergman.kernel_model(spec)
    config = carleson.CarlesonConfig(r=args.r, seed=args.seed, berezin_samples=args.samples)
    report = carleson.carleson_test(spec, model, mu, config)
    header, rows = carleson.report_point_rows(report)
    tables.write(os.path.join(out, "carleson_points.csv"), header, rows)
    header, rows = carleson.report_level_rows(report)
    tables.write(os.path.join(out, "carleson_levels.csv"), header, rows)
    summary = carleson.report_summary(report)
    summary["config_cli"] = _echo(args)
    _write_json(os.path.join(out, "carleson_summary.json"), summary)
    print(
        f"verdicts: berezin={report.berezin.verdict} geometric={report.geometric.verdict} "
        f"operator={report.operator.verdict}; "
        f"C={report.berezin.sup:.6g} C_r={report.geometric.sup:.6g}"
    )
    return 0


def _cmd_cover(args, spec, out) -> int:
    result = carleson.kobayashi_cover(
        spec, args.r, seed=args.seed, candidates=args.samples,
        test_count=min(10000, args.samples),
    )
    tables.write(
        os.path.join(out, "cover_centers.csv"),
        tables.coord_header(spec.dim),
        domains.to_real(result.centers),
    )
    _write_json(
        os.path.join(out, "cover_summary.json"),
        {
            "config": _echo(args),
            "centers": len(result.centers),
            "level": result.level,
            "coverage": {
                "total": result.coverage.total,
                "certified": result.coverage.certified,
                "heuristic": result.coverage.heuristic,
                "uncovered": result.coverage.uncovered,
            },
        },
    )
    print(
        f"{len(result.centers)} centers; coverage {result.coverage.fraction:.1%} "
        f"({result.coverage.certified} certified, {result.coverage.heuristic} heuristic)"
    )
    return 0


def _cmd_decompose(args, spec, out) -> int:
    gamma = sequences.sequence_from_csv(spec, args.points)
    decomposition = sequences.greedy_decompose(spec, gamma, args.r)
    parts = decomposition.parts
    sequences.decomposition_to_csv(gamma, decomposition, os.path.join(out, "decompose.csv"))
    seps = [sequences.separation(spec, part) for part in parts]
    _write_json(
        os.path.join(out, "decompose_summary.json"),
        {
            "config": _echo(args),
            "parts": len(parts),
            "part_sizes": [part.count for part in parts],
            "part_separations": [s if math.isfinite(s) else None for s in seps],
            "max_ball_count": decomposition.max_ball_count,
        },
    )
    print(f"{len(parts)} parts; sizes {[part.count for part in parts]}")
    return 0


def _cmd_pack(args, spec, out) -> int:
    result = sequences.greedy_packing(
        spec, args.r, level_floor=args.level, seed=args.seed, candidates=args.samples
    )
    sequences.sequence_to_csv(result.sequence, os.path.join(out, "pack.csv"))
    sep = sequences.separation(spec, result.sequence)
    _write_json(
        os.path.join(out, "pack_summary.json"),
        {
            "config": _echo(args),
            "count": result.sequence.count,
            "separation": sep if math.isfinite(sep) else None,
            "exhausted": result.exhausted,
        },
    )
    print(f"packed {result.sequence.count} points; separation {sep:.6g}")
    return 0


def _cmd_thm42(args, spec, out) -> int:
    config = carleson.CarlesonConfig(r=args.r, seed=args.seed, berezin_samples=args.samples)
    if args.points:
        gamma = sequences.sequence_from_csv(spec, args.points, label="loaded")
    else:
        gamma = sequences.greedy_packing(
            spec, args.sep, level_floor=0.02, seed=args.seed
        ).sequence
    model = bergman.kernel_model(spec)
    report = sequences.thm42_pipeline(spec, model, gamma, config)
    summary = carleson.report_summary(report.carleson)
    summary["config_cli"] = _echo(args)
    summary["sequence"] = {
        "count": gamma.count,
        "separation": report.separation if math.isfinite(report.separation) else None,
        "parts": report.part_count,
        "max_ball_count": report.max_ball_count,
    }
    summary["statement3"] = {"sup": report.carleson.operator.sup}
    summary["verdicts_agree"] = report.verdicts_agree
    _write_json(os.path.join(out, "thm42_summary.json"), summary)
    header, rows = carleson.report_level_rows(report.carleson)
    tables.write(os.path.join(out, "thm42_levels.csv"), header, rows)
    print(
        f"|Gamma|={gamma.count} sep={report.separation:.4g} parts={report.part_count}; "
        f"verdict (2) {report.carleson.berezin.verdict}, (3) {report.carleson.geometric.verdict}"
    )
    return 0


_COMMANDS = {
    "domain-info": _cmd_domain_info,
    "frame": _cmd_frame,
    "kernel-check": _cmd_kernel_check,
    "berezin": _cmd_berezin,
    "carleson": _cmd_carleson,
    "cover": _cmd_cover,
    "decompose": _cmd_decompose,
    "pack": _cmd_pack,
    "thm42": _cmd_thm42,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        spec = domains.load_spec(args.domain)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out}: {exc}") from None
        return _COMMANDS[args.command](args, spec, args.out)
    except (InputError, ConfigError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ResourceError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except CarlesonLabError as exc:  # any stragglers in the hierarchy
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
