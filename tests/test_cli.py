"""End-to-end tests of the batch driver: exit codes, artifact layout, and
byte-level reproducibility of re-runs."""

import contextlib
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson_lab import cli, domains, measures, sequences
from carleson_lab.domains import complex_ellipsoid, unit_disk


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    disk = tmp / "disk.json"
    ell = tmp / "ell.json"
    domains.save_spec(unit_disk(), disk)
    domains.save_spec(complex_ellipsoid((1, 2), (1.0, 1.0)), ell)
    return {"tmp": tmp, "disk": str(disk), "ell": str(ell)}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# happy paths


def test_domain_info(paths, capsys):
    out = paths["tmp"] / "info"
    assert cli.main(["domain-info", "--domain", paths["disk"], "--out", str(out)]) == 0
    payload = _read_json(out / "domain_info.json")
    assert payload["kind"] == "disk"
    assert payload["dim"] == 1
    assert payload["inradius"] == pytest.approx(1.0)
    assert payload["version"]
    assert "disk dim=1" in capsys.readouterr().out


# a semi-axis must be a JSON number, not a string or a boolean
_STRING_BOOL_AXES = '{"kind": "ellipsoid", "exponents": [1, 2], "semi_axes": ["1", true]}'


def _wide_ellipsoid(b: float) -> str:
    """The (1, 1, 2) ellipsoid with semi-axes (1, 1, b): its box is 1.05 b wide."""
    return json.dumps({"kind": "ellipsoid", "exponents": [1, 1, 2], "semi_axes": [1, 1, b]})


@pytest.mark.parametrize(
    "text",
    [_wide_ellipsoid(b) for b in (1e10, 1e20, 1e60, 1e100)]
    + ['{"kind": "ellipsoid", "exponents": [1, 2], "semi_axes": [1.0, 1e150]}'],
    ids=["box1e10", "box1e20", "box1e60", "box1e100", "axes1e150"],
)
def test_wide_domains_give_the_unit_inradius(paths, text):
    # the inradius is min a_i on any box; no numpy or scipy warning may reach
    # the terminal (the ray roots' brackets on these boxes are pinned by
    # test_domains.py::test_level_roots_on_wide_boxes)
    spec = paths["tmp"] / "wide.json"
    spec.write_text(text)
    out = paths["tmp"] / "wide"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["domain-info", "--domain", str(spec), "--out", str(out)]) == 0
    assert _read_json(out / "domain_info.json")["inradius"] == pytest.approx(1.0, abs=1e-12)


def test_frame_fixture(paths, capsys):
    out = paths["tmp"] / "frame"
    code = cli.main(
        ["frame", "--domain", paths["ell"], "--point", "0,0,0.9,0", "--out", str(out)]
    )
    assert code == 0
    assert "sigma = (0.100000, 0.586430)" in capsys.readouterr().out
    payload = _read_json(out / "frame_summary.json")
    assert payload["sigma"][0] == pytest.approx(0.1, abs=1e-9)
    assert payload["sigma"][1] == pytest.approx(np.sqrt(1.0 - 0.9**4), abs=1e-9)
    assert (out / "frame.csv").exists()


def test_kernel_check(paths, capsys):
    out = paths["tmp"] / "kc"
    code = cli.main(
        ["kernel-check", "--domain", paths["disk"], "--out", str(out), "--samples", "4096"]
    )
    assert code == 0
    payload = _read_json(out / "kernel_check.json")
    assert payload["series_max_rel_error"] < 1e-8
    assert payload["reproduce_max_residual"] < 0.1
    assert "reproducing residual" in capsys.readouterr().out


def test_carleson_reruns_are_byte_identical(paths, capsys):
    args = [
        "carleson", "--domain", paths["disk"], "--samples", "4096",
    ]
    out1 = paths["tmp"] / "c1"
    out2 = paths["tmp"] / "c2"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    for name in ("carleson_points.csv", "carleson_levels.csv", "carleson_summary.json"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    payload = _read_json(out1 / "carleson_summary.json")
    assert payload["verdicts"]["berezin"] == "Bounded"
    assert payload["config_cli"]["samples"] == 4096
    assert "verdicts:" in capsys.readouterr().out


def test_catalog_measure_names_resolve(paths):
    out = paths["tmp"] / "cat1"
    code = cli.main(
        ["carleson", "--domain", paths["disk"], "--measure", "cluster",
         "--samples", "4096", "--out", str(out)]
    )
    assert code == 0
    payload = _read_json(out / "carleson_summary.json")
    assert payload["measure"].startswith("unit[cluster")
    assert payload["verdicts"]["berezin"] == "Diverging"
    assert payload["verdicts"]["geometric"] == "Diverging"

    out2 = paths["tmp"] / "cat2"
    code = cli.main(
        ["berezin", "--domain", paths["disk"], "--measure", "packing0.3",
         "--samples", "4096", "--out", str(out2)]
    )
    assert code == 0
    payload = _read_json(out2 / "berezin_summary.json")
    assert 0 < payload["sup"] < 50


def test_berezin_and_carleson_write_the_same_berezin_columns(paths):
    # both commands integrate a density over the one nu-uniform base drawn
    # from --seed, so their Berezin value and stderr columns agree
    common = ["--domain", paths["disk"], "--measure", "density(1-d)",
              "--samples", "4096", "--seed", "3"]
    out_b, out_c = paths["tmp"] / "bz-base", paths["tmp"] / "c-base"
    assert cli.main(["berezin", *common, "--out", str(out_b)]) == 0
    assert cli.main(["carleson", *common, "--out", str(out_c)]) == 0
    lines = (out_b / "berezin.csv").read_text().splitlines()[1:]
    berezin_cols = [line.split(",")[-2:] for line in lines]
    lines = (out_c / "carleson_points.csv").read_text().splitlines()[1:]
    carleson_cols = [line.split(",")[-3:-1] for line in lines if line.startswith("berezin,")]
    assert len(berezin_cols) > 0 and berezin_cols == carleson_cols


def test_berezin_with_atom_csv(paths):
    spec = unit_disk()
    mu = measures.atomic_measure(spec, [0.0, 0.5], np.array([1.0, 1.0]), label="pair")
    atom_path = paths["tmp"] / "pair.csv"
    measures.atoms_to_csv(mu, atom_path)
    out = paths["tmp"] / "bz"
    code = cli.main(
        ["berezin", "--domain", paths["disk"], "--measure", str(atom_path), "--out", str(out)]
    )
    assert code == 0
    payload = _read_json(out / "berezin_summary.json")
    assert payload["sup"] > 0
    rows = (out / "berezin.csv").read_text().strip().split("\n")
    assert rows[0].startswith("index,kind,delta,x1,y1,value,stderr")
    assert len(rows) == payload["points"] + 1


def test_cover(paths, capsys):
    out = paths["tmp"] / "cover"
    code = cli.main(
        ["cover", "--domain", paths["disk"], "--r", "0.5", "--samples", "3000", "--out", str(out)]
    )
    assert code == 0
    payload = _read_json(out / "cover_summary.json")
    assert payload["centers"] == 171
    assert payload["coverage"]["uncovered"] == 0
    assert payload["coverage"]["total"] == 3000
    assert "coverage 100.0%" in capsys.readouterr().out


def test_pack_then_decompose(paths, capsys):
    out = paths["tmp"] / "pack"
    code = cli.main(
        ["pack", "--domain", paths["disk"], "--r", "0.6", "--samples", "512",
         "--level", "0.1", "--out", str(out)]
    )
    assert code == 0
    pack_summary = _read_json(out / "pack_summary.json")
    assert pack_summary["separation"] >= 0.6
    capsys.readouterr()

    out2 = paths["tmp"] / "dec"
    code = cli.main(
        ["decompose", "--domain", paths["disk"], "--points", str(out / "pack.csv"),
         "--r", "0.3", "--out", str(out2)]
    )
    assert code == 0
    dec = _read_json(out2 / "decompose_summary.json")
    assert dec["parts"] == 1
    assert dec["part_sizes"] == [pack_summary["count"]]
    assert "1 parts" in capsys.readouterr().out


def test_thm42_generated_sequence(paths, capsys):
    out = paths["tmp"] / "thm42"
    code = cli.main(
        ["thm42", "--domain", paths["disk"], "--samples", "4096", "--out", str(out)]
    )
    assert code == 0
    payload = _read_json(out / "thm42_summary.json")
    assert payload["verdicts_agree"] is True
    assert payload["verdicts"]["berezin"] == "Bounded"
    assert payload["sequence"]["separation"] >= 0.5
    assert payload["sequence"]["parts"] <= payload["sequence"]["max_ball_count"]
    assert payload["statement3"] == {"sup": payload["sups"]["operator"]}
    assert payload["statement3"]["sup"] > 0
    assert (out / "thm42_levels.csv").exists()
    assert "verdict (2) Bounded" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# validation failures: exit 1


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["carleson", "--domain", "DISK", "--measure", "bogus"], "unknown measure"),
        (["carleson", "--domain", "DISK", "--r", "1.5"], "--r must lie"),
        (["berezin", "--domain", "DISK", "--samples", "0"], "--samples must lie"),
        (["kernel-check", "--domain", "DISK", "--degree", "500"], "--degree must lie"),
        (["frame", "--domain", "DISK", "--point", "0.1"], "--point needs"),
        (["frame", "--domain", "DISK", "--point", "zero,0"], "comma-separated"),
        (["decompose", "--domain", "DISK", "--points", "/nonexistent.csv"], ""),
        (["kernel-check", "--domain", "DISK", "--seed", "-1"], "--seed must be"),
        # unreadable input: a directory, a binary file, --out on a file
        (["decompose", "--domain", "DISK", "--points", "DIR"], "Is a directory"),
        (["berezin", "--domain", "DISK", "--measure", "DIR.csv"], "Is a directory"),
        (["decompose", "--domain", "DISK", "--points", "BINARY"], "can't decode"),
        (["domain-info", "--domain", "BINARY"], "can't decode"),
        (["domain-info", "--domain", "DISK", "--out", "FILE"], "File exists"),
        # one Monte Carlo sample has no standard error
        (["berezin", "--domain", "DISK", "--samples", "1"], "must be >= 2"),
        (["carleson", "--domain", "DISK", "--samples", "1"], "must be >= 2"),
        (["thm42", "--domain", "DISK", "--samples", "1"], "must be >= 2"),
        # a core level below the boundary, or none at all, samples outside D
        (["pack", "--domain", "DISK", "--level=-0.5", "--samples", "2000"], "level_floor must be"),
        (["pack", "--domain", "DISK", "--level=nan", "--samples", "2000"], "level_floor must be"),
        # r >= -1 on the disk, so a floor of 1 or more leaves nothing to draw
        (["pack", "--domain", "DISK", "--level", "1.5", "--samples", "4096"], "level_floor must be < 1"),
        # the same rule on the ellipsoid, whose least value is r(0) = -1 too
        (["pack", "--domain", "ELL", "--level", "1.5", "--samples", "4096"], "level_floor must be < 1 "),
        # r divides by a^2: a semi-axis whose square is not finite and positive
        (["domain-info", "--domain", "AXES_INF"], "semi_axes"),
        (["domain-info", "--domain", "AXES_NAN"], "semi_axes"),
        (["domain-info", "--domain", "AXES_1e300"], "semi_axes"),
        (["domain-info", "--domain", "AXES_1e-300"], "semi_axes"),
        # r overflows at the corner of the box: |z_2|^2 itself, or 2.205^898
        (["domain-info", "--domain", "AXES_1e154"], "r overflows on the validation box"),
        (["domain-info", "--domain", "EXP_898"], "r overflows on the validation box"),
        # criterion (1)'s degrees are set by the levels: only kernel-check takes --degree
        (["carleson", "--domain", "DISK", "--degree", "6"], "unrecognized arguments: --degree"),
        (["thm42", "--domain", "DISK", "--degree", "6"], "unrecognized arguments: --degree"),
        # one name per measure: the densities' old second names are gone
        (["carleson", "--domain", "DISK", "--measure", "one_minus_delta"], "unknown measure"),
        (["berezin", "--domain", "DISK", "--measure", "inv_one_minus_delta"], "unknown measure"),
        # only the commands that draw samples take --seed
        (["domain-info", "--domain", "DISK", "--seed", "0"], "unrecognized arguments: --seed"),
        (["frame", "--domain", "DISK", "--point", "0,0", "--seed", "0"],
         "unrecognized arguments: --seed"),
        (["decompose", "--domain", "DISK", "--points", "x.csv", "--seed", "0"],
         "unrecognized arguments: --seed"),
        # a spec is read exactly: a key its kind does not read, or a non-integer
        (["domain-info", "--domain", "COLLAR"], "unknown keys in disk domain spec: ['collar']"),
        (["domain-info", "--domain", "BALL_2.7"], "dimension must be an integer, got 2.7"),
        (["domain-info", "--domain", "AXES_STR_BOOL"], "a semi-axis must be a real number, got '1'"),
        # three kinds: a polynomial spec names its kind like any unknown one
        (["domain-info", "--domain", "POLY"], "unknown domain kind 'polynomial'"),
    ],
)
def test_validation_errors_exit_1(paths, capsys, argv, fragment):
    (paths["tmp"] / "dir.csv").mkdir(exist_ok=True)
    (paths["tmp"] / "binary.dat").write_bytes(b"\xff\xfe\x00\x81\x00binary")
    (paths["tmp"] / "file").write_text("a file, not a directory\n")
    names = {
        "DISK": paths["disk"],
        "ELL": paths["ell"],
        "DIR": str(paths["tmp"]),
        "DIR.csv": str(paths["tmp"] / "dir.csv"),
        "BINARY": str(paths["tmp"] / "binary.dat"),
        "FILE": str(paths["tmp"] / "file"),
    }
    # Python's json reads Infinity and NaN as floats; the strings "inf" and
    # "nan" are refused as strings before the semi-axis check
    for tag, axis in (
        ("INF", "Infinity"), ("NAN", "NaN"), ("1e300", "1e300"), ("1e-300", "1e-300"), ("1e154", "1e154")
    ):
        path = paths["tmp"] / f"axes_{tag}.json"
        path.write_text(f'{{"kind": "ellipsoid", "exponents": [1, 2], "semi_axes": [1.0, {axis}]}}')
        names[f"AXES_{tag}"] = str(path)
    for tag, text in (("COLLAR", '{"kind": "disk", "collar": 0.2}'),
                      ("BALL_2.7", '{"kind": "ball", "dimension": 2.7}'),
                      ("EXP_898", '{"kind": "ellipsoid", "exponents": [1, 898]}'),
                      ("AXES_STR_BOOL", _STRING_BOOL_AXES),
                      ("POLY", '{"kind": "polynomial", "dimension": 1, "box": [1.01]}')):
        names[tag] = str(paths["tmp"] / f"{tag.lower()}.json")
        Path(names[tag]).write_text(text)
    argv = [names.get(tok, tok) for tok in argv]
    if "--out" not in argv:
        argv += ["--out", str(paths["tmp"] / "junk")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_non_numeric_sequence_cell_exit_1(paths, capsys):
    bad = paths["tmp"] / "bad_points.csv"
    bad.write_text("x1,y1\n0.1,0.2\n0.3,abc\n")
    code = cli.main(
        ["decompose", "--domain", paths["disk"], "--points", str(bad),
         "--out", str(paths["tmp"] / "junk")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "abc" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, header, extra",
    [(["decompose", "--points"], "x1,y1", ""),
     (["berezin", "--samples", "64", "--measure"], "x1,y1,weight", ",1")],
    ids=["points", "atoms"],
)
def test_non_numeric_cell_names_file_and_line(paths, capsys, argv, header, extra):
    # a blank line before the bad row: the message names the file's own line 4
    bad = paths["tmp"] / f"bad_{argv[0]}.csv"
    bad.write_text(f"{header}\n0.1,0.2{extra}\n\n0.3,abc{extra}\n")
    argv = argv + [str(bad), "--domain", paths["disk"], "--out", str(paths["tmp"] / "junk")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}, row 4: could not convert string to float: 'abc'\n"


def test_non_numeric_spec_field_exit_1(paths, capsys):
    bad = paths["tmp"] / "bad_spec.json"
    for text, value in (('{"kind": "ball", "dimension": "x"}', "'x'"), (_STRING_BOOL_AXES, "'1'")):
        bad.write_text(text)
        assert cli.main(["domain-info", "--domain", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and value in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


SUITE = ["lebesgue", "packing0.3", "packing0.5", "packing0.8", "ray+", "ray-", "cluster",
         "density(1-d)", "density(1/(1-d))", "atom"]


def test_every_suite_name_resolves():
    spec = unit_disk()
    labels = [cli._resolve_measure(spec, name, seed=0).label for name in SUITE]
    assert labels[0] == "lebesgue" and labels[-1] == "atom-half"
    assert labels[7:9] == ["one_minus_delta", "inv_one_minus_delta"]
    assert all(label.startswith("unit[") for label in labels[4:7])


def test_unknown_measure_lists_the_suite(paths, capsys):
    argv = ["carleson", "--domain", paths["disk"], "--measure", "one_minus_delta",
            "--out", str(paths["tmp"] / "junk")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: unknown measure 'one_minus_delta'; use one of {', '.join(SUITE)}\n"


def test_moment_cube_too_large_exit_2(paths, capsys):
    # kernel-check's series cross-check on the 12-ball asks for a 61^12 cube;
    # it is refused before anything is allocated
    spec = paths["tmp"] / "ball12.json"
    spec.write_text('{"kind": "ball", "dimension": 12}')
    argv = ["kernel-check", "--domain", str(spec), "--out", str(paths["tmp"] / "ball12")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: a moment table of degree 60 in dimension 12 has 61^12")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_unknown_command_exit_1(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_domain_file_exit_1(paths, capsys):
    code = cli.main(["domain-info", "--domain", str(paths["tmp"] / "missing.json")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_measure_file_not_found_exit_1(paths, capsys):
    code = cli.main(
        ["berezin", "--domain", paths["disk"], "--measure", "nope.csv",
         "--out", str(paths["tmp"] / "junk")]
    )
    assert code == 1
    assert "measure file not found" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "carleson-lab" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# numeric failures: exit 2


def test_truncation_exit_2(paths, capsys):
    spec = complex_ellipsoid((1, 2), (1.0, 1.0))
    mu = measures.atomic_measure(spec, [[0.0, 0.9999]], np.array([1.0]), label="edge")
    atom_path = paths["tmp"] / "edge.csv"
    measures.atoms_to_csv(mu, atom_path)
    code = cli.main(
        ["berezin", "--domain", paths["ell"], "--measure", str(atom_path),
         "--out", str(paths["tmp"] / "junk2"), "--samples", "4096"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("numeric error:")


def test_infinite_box_volume_exit_2(paths, capsys):
    # r is finite on this box, but its volume, the product of the (2b)^2
    # over pi^2 / 2, is not, and standard JSON has no inf: domain-info
    # writes nothing
    spec = paths["tmp"] / "axes_5e153.json"
    spec.write_text('{"kind": "ellipsoid", "exponents": [1, 2], "semi_axes": [1.0, 5e153]}')
    out = paths["tmp"] / "axes_5e153"
    assert cli.main(["domain-info", "--domain", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: domain_info.json not written")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "domain_info.json").exists()


def test_low_degree_series_tail_exit_2(paths, capsys):
    code = cli.main(
        ["kernel-check", "--domain", paths["disk"], "--degree", "20",
         "--samples", "4096", "--out", str(paths["tmp"] / "junk3")]
    )
    assert code == 2
    assert "series tail" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz: any spec, CSV or flag gives exit 0, 1 or 2 and a one-line message

_VALID_SPECS = [
    {"kind": "disk"},
    {"kind": "ball", "dimension": 2},
    {"kind": "ellipsoid", "exponents": [1, 2], "semi_axes": [1.0, 0.8]},
    {"kind": "ellipsoid", "exponents": [1, 1, 2]},
]
_SPEC_KEYS = [
    "kind", "dimension", "exponents", "semi_axes", "terms", "box", "anchor", "collar", "bogus",
]
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3),
    st.floats(-2.0, 2.0), st.sampled_from([float("nan"), float("inf"), 1e308]),
    st.text(max_size=4),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.text(max_size=3), _scalars, max_size=2),
)


@st.composite
def _spec_text(draw):
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(st.text(max_size=20))
    if choice == 1:
        return json.dumps(draw(_values))
    spec = dict(draw(st.sampled_from(_VALID_SPECS)))
    for key in draw(st.lists(st.sampled_from(_SPEC_KEYS), max_size=2)):
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(_values)
    return json.dumps(spec)


_cells = st.one_of(
    st.floats(-1.0, 1.0).map(repr), st.integers(-2, 2).map(str),
    st.sampled_from(["", "nan", "inf", "-0", "1e400", "abc", " 0.1"]),
)


@st.composite
def _csv_text(draw):
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_cells, min_size=width, max_size=width), max_size=4))
    header = ",".join(f"c{i}" for i in range(width))
    lines = ([header] if draw(st.booleans()) else []) + [",".join(r) for r in rows]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


_FLAGS = {
    "--r": st.one_of(st.floats(-0.5, 1.5).map(repr), st.sampled_from(["nan", "x"])),
    "--samples": st.integers(-2, 48).map(str),
    "--degree": st.one_of(st.integers(-1, 8), st.just(500)).map(str),
    "--seed": st.integers(-3, 3).map(str),
    "--point": st.lists(st.floats(-1.0, 1.0).map(repr), max_size=5).map(",".join),
    "--measure": st.sampled_from(
        ["lebesgue", "atom", "ray+", "packing0.5", "nope", "ATOMS", "missing.csv"]
    ),
    "--level": st.floats(-0.5, 1.5).map(repr),
    "--sep": st.floats(-0.5, 1.5).map(repr),
}


# the options each command takes besides --domain and --out
_TAKES = {
    "domain-info": (), "frame": ("--point",),
    "kernel-check": ("--degree", "--samples", "--seed"),
    "berezin": ("--measure", "--r", "--samples", "--seed"),
    "carleson": ("--measure", "--r", "--samples", "--seed"),
    "cover": ("--r", "--samples", "--seed"), "decompose": ("--r",),
    "pack": ("--r", "--samples", "--level", "--seed"),
    "thm42": ("--r", "--samples", "--sep", "--seed"),
    "bogus": (),
}


@st.composite
def _command_line(draw):
    command = draw(st.sampled_from(sorted(_TAKES)))
    names = list(_TAKES[command])
    if draw(st.integers(0, 9)) == 0:  # now and then an option the command does not take
        names.append(draw(st.sampled_from(sorted(_FLAGS))))
    chosen = draw(st.lists(st.sampled_from(names), max_size=4, unique=True)) if names else []
    return command, [(name, draw(_FLAGS[name])) for name in chosen]


@given(spec=_spec_text(), atoms=_csv_text(), points=_csv_text(), line=_command_line())
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exit_codes(tmp_path_factory, spec, atoms, points, line):
    command, flags = line
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "spec.json").write_text(spec, encoding="utf-8")
    (tmp / "atoms.csv").write_text(atoms, encoding="utf-8")
    (tmp / "points.csv").write_text(points, encoding="utf-8")
    argv = [command, "--domain", str(tmp / "spec.json"), "--out", str(tmp / "out")]
    if command in ("decompose", "thm42"):  # thm42 would otherwise pack a sequence
        argv += ["--points", str(tmp / "points.csv")]
    if "--samples" in _TAKES[command]:  # small by default; a drawn value comes later and wins
        argv += ["--samples", "16"]
    for name, value in flags:
        argv += [name, str(tmp / "atoms.csv") if value == "ATOMS" else value]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    text = err.getvalue()
    assert "Traceback" not in text, argv
    if code:
        assert len(text.strip().splitlines()) == 1, (argv, text)
