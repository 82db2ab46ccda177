"""The coordinate-table format shared by atom, sequence and decomposition
files: exact round trips, "\\n" line endings, and one reader that skips blank
lines and accepts "\\r\\n"."""

import numpy as np
import pytest

from carleson_lab import measures, sequences
from carleson_lab.domains import unit_ball, unit_disk

DISK = unit_disk()
BALL2 = unit_ball(2)

# values whose shortest decimal form needs all 17 digits, tiny and negative ones
_AWKWARD = np.array(
    [[0.1 + 0.2j, -1e-300 + (1 / 3) * 1j], [np.nextafter(0.5, 1.0), -0.0 + 2.0**-52 * 1j]]
)


def _atom_trip(spec, pts, path):
    mu = measures.atomic_measure(spec, pts, np.linspace(0.25, 1.0, len(pts)) / 3.0)
    measures.atoms_to_csv(mu, path)
    back = measures.atoms_from_csv(spec, path)
    return (mu.points, mu.weights), (back.points, back.weights)


def _sequence_trip(spec, pts, path):
    seq = sequences.sequence_set(spec, pts)
    sequences.sequence_to_csv(seq, path)
    return (seq.points,), (sequences.sequence_from_csv(spec, path).points,)


@pytest.mark.parametrize("trip", [_atom_trip, _sequence_trip], ids=["atoms", "sequence"])
def test_tables_read_back_bitwise(tmp_path, trip):
    cases = [(BALL2, _AWKWARD), (DISK, _AWKWARD[:, :1]), (BALL2, np.zeros((0, 2)))]
    for k, (spec, pts) in enumerate(cases):
        written, read = trip(spec, pts, tmp_path / f"t{k}.csv")
        for a, b in zip(written, read):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.all(a == b), (k, a, b)


def test_every_writer_ends_lines_with_newline(tmp_path):
    gamma = sequences.sequence_set(DISK, [0.1, -0.4j, 0.5 + 0.2j])
    dec = sequences.greedy_decompose(DISK, gamma, 0.6)
    mu = measures.atomic_measure(BALL2, _AWKWARD, [1.0, 0.5])
    measures.atoms_to_csv(mu, tmp_path / "atoms.csv")
    sequences.sequence_to_csv(gamma, tmp_path / "seq.csv")
    sequences.decomposition_to_csv(gamma, dec, tmp_path / "dec.csv")
    for name in ("atoms.csv", "seq.csv", "dec.csv"):
        blob = (tmp_path / name).read_bytes()
        assert b"\r" not in blob and blob.endswith(b"\n"), name
        assert blob.count(b"\n") == 1 + (mu.count if name == "atoms.csv" else gamma.count)


def _variants(width: int) -> dict[str, str]:
    rows = [["0.1", "0.2", "0", "-0.3", "1"], ["0.25", "0", "0.125", "0.5", "0.5"]]
    lines = [",".join(["x1", "y1", "x2", "y2", "weight"][:width])]
    lines += [",".join(row[:width]) for row in rows]
    return {
        "blank-lines": "\n".join([lines[0], "", lines[1], "  ", lines[2]]) + "\n\n\n",
        "crlf": "\r\n".join(lines) + "\r\n\r\n",
    }


def test_readers_accept_blank_lines_and_crlf(tmp_path):
    want = np.array([[0.1 + 0.2j, -0.3j], [0.25, 0.125 + 0.5j]])
    path = tmp_path / "table.csv"
    for name, text in _variants(5).items():
        path.write_bytes(text.encode())
        mu = measures.atoms_from_csv(BALL2, path)
        assert np.all(mu.points == want) and np.all(mu.weights == [1.0, 0.5]), name
    for name, text in _variants(4).items():
        path.write_bytes(text.encode())
        assert np.all(sequences.sequence_from_csv(BALL2, path).points == want), name
