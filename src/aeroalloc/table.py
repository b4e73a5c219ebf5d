"""The package's one table format: a header row, then comma-separated rows.

Every CSV the package writes or reads goes through these two functions.
Rows end in "\\r\\n" (the csv module's default) and each cell is written as
`str(cell)`; for a Python float that is the shortest repr that reads back to
the same bits, so a float table round-trips exactly.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def write_table(path: str | Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([str(cell) for cell in row] for row in rows)


def read_table(path: str | Path, header) -> np.ndarray:
    """The data rows of a table as an (n, len(header)) float array.

    The first row must equal `header`; blank lines are skipped. A row of
    another width, a cell that is not a number, or a file with no data rows
    raises ValueError naming the file.

    numpy's C parser reads the rows straight into the array; it reads a
    shortest-repr float back to the same bits, as `float` does. A file it
    does not read as a table of that width goes through `_read_rows`, which
    names the offending line, or reads the cells `float` reads and it does not
    (a quoted number, digits grouped with "_").
    """
    header = list(header)
    with open(path) as fh:
        if next(csv.reader([fh.readline()]), None) != header:
            raise ValueError(f"{path}: header is not {','.join(header)}")
        data_start = fh.tell()
        if all(line == "\n" for line in iter(fh.readline, "")):
            raise ValueError(f"{path}: no data rows")
        fh.seek(data_start)
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1] != len(header):
        return _read_rows(path, len(header))
    return data


def _read_rows(path: str | Path, width: int) -> np.ndarray:
    """The data rows after the header, parsed cell by cell with `float`."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(
                    f"{path} line {reader.line_num}: {len(row)} fields, expected {width}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return np.array(rows)
