"""End-to-end tests of the batch driver: exit codes, artifact layout, and
byte-level reproducibility of re-runs."""

import json
import os

import numpy as np
import pytest

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
        "carleson", "--domain", paths["disk"], "--samples", "4096", "--degree", "4",
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
         "--samples", "4096", "--degree", "4", "--out", str(out)]
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
        ["thm42", "--domain", paths["disk"], "--samples", "4096", "--degree", "4",
         "--out", str(out)]
    )
    assert code == 0
    payload = _read_json(out / "thm42_summary.json")
    assert payload["verdicts_agree"] is True
    assert payload["verdicts"]["berezin"] == "Bounded"
    assert payload["sequence"]["separation"] >= 0.5
    assert payload["sequence"]["parts"] <= payload["sequence"]["max_ball_count"]
    assert payload["statement3"]["kernel_sup"] > 0
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
    ],
)
def test_validation_errors_exit_1(paths, capsys, argv, fragment):
    argv = [tok if tok != "DISK" else paths["disk"] for tok in argv]
    argv += ["--out", str(paths["tmp"] / "junk")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err


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


def test_non_numeric_spec_field_exit_1(paths, capsys):
    bad = paths["tmp"] / "bad_ball.json"
    bad.write_text('{"kind": "ball", "dimension": "x"}')
    assert cli.main(["domain-info", "--domain", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x'" in err
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


def test_low_degree_series_tail_exit_2(paths, capsys):
    code = cli.main(
        ["kernel-check", "--domain", paths["disk"], "--degree", "20",
         "--samples", "4096", "--out", str(paths["tmp"] / "junk3")]
    )
    assert code == 2
    assert "series tail" in capsys.readouterr().err
