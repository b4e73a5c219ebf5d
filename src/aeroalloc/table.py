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
    """
    header = list(header)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"{path}: header is not {','.join(header)}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path} line {reader.line_num}: {len(row)} fields, expected {len(header)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)
