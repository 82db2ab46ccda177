"""The coordinate table: the one CSV format for point data.

Sequences, atomic measures, covers, frames and criterion traces are written
as tables with a header row and one row per point.  A point z in C^n takes
the interleaved real columns x1,y1,...,xn,yn (domains.to_real); named
columns may come before and after them.  Floats are written with 17
significant digits, so a table read back gives the same doubles, and every
line ends in "\\n".  The reader skips blank lines and accepts "\\r\\n".
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def coord_header(n: int) -> list[str]:
    """Column names x1, y1, ..., xn, yn of a point in C^n."""
    return [c for i in range(1, n + 1) for c in (f"x{i}", f"y{i}")]


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(v)
    return f"{float(v):.17g}"


def write(path, header: list[str], rows) -> None:
    """Write a table; in rows, strings go as they are, integers in decimal
    and other numbers as 17-digit floats."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def read(path, noun: str, width: int, detail: str = "") -> np.ndarray:
    """The data rows of the table at path as floats, shape (rows, width).

    A missing, unreadable (a directory, not UTF-8 text) or empty file, a
    header of another width (the message ends in detail), a row of another
    width and a non-numeric cell raise InputError; a bad row is named by the
    file and its line number."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(number, line.strip()) for number, line in enumerate(fh, 1) if line.strip()]
    except FileNotFoundError:
        raise InputError(f"{noun} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {noun} file {path}: {exc}") from None
    if not lines:
        raise InputError(f"empty {noun} file {path}")
    columns = len(lines[0][1].split(","))
    if columns != width:
        raise InputError(f"{noun} file has {columns} columns, expected {width}{detail}")
    out = np.empty((len(lines) - 1, width))
    for k, (number, line) in enumerate(lines[1:]):
        cells = line.split(",")
        try:
            if len(cells) != width:
                raise ValueError(f"{len(cells)} cells, expected {width}")
            out[k] = [float(cell) for cell in cells]
        except ValueError as exc:
            raise InputError(f"{path}, row {number}: {exc}") from None
    return out
