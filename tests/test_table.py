"""The one table codec: exact float round trip, line format, and the loaders' edge cases."""
import ast
from pathlib import Path

import numpy as np
import pytest

import aeroalloc
from aeroalloc import allocator, dynamics, probe
from aeroalloc.table import read_table, write_table

HEADER = ["a", "b", "c"]


def test_float_round_trip_is_bit_for_bit(tmp_path):
    values = np.array([
        [-0.0, 0.0, 5e-324],
        [1e16, 1e22, -1e22],
        [0.1 + 0.2, 1.0 / 3.0, -2.718281828459045],
        [np.nextafter(1.0, 2.0), 1.7976931348623157e308, -2.2250738585072014e-308],
    ])
    path = tmp_path / "t.csv"
    write_table(path, HEADER, values.tolist())
    back = read_table(path, HEADER)
    assert np.array_equal(back, values)
    assert np.array_equal(np.signbit(back), np.signbit(values))


def test_written_lines_are_str_of_each_float(tmp_path):
    row = np.random.default_rng(3).normal(size=5) * 1e3
    path = tmp_path / "t.csv"
    write_table(path, list("vwxyz"), [row.tolist()])
    lines = path.read_bytes().decode().splitlines(keepends=True)
    assert lines == ["v,w,x,y,z\r\n", ",".join(str(float(v)) for v in row) + "\r\n"]


def test_only_the_table_module_imports_csv():
    importers = []
    for path in sorted(Path(aeroalloc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["table.py"]


LOADERS = {
    "dynamics": (dynamics.load_dynamics_csv, dynamics.DYNAMICS_CSV_HEADER, lambda r: len(r[0])),
    "calibration": (probe.load_calibration_csv, probe.CALIBRATION_CSV_HEADER, len),
    "tracking": (lambda p: read_table(p, allocator.TRACKING_CSV_HEADER),
                 allocator.TRACKING_CSV_HEADER, len),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loader_edge_cases(tmp_path, kind):
    load, header, n_rows = LOADERS[kind]
    head = ",".join(header) + "\r\n"
    row = ",".join(["1.0"] * len(header)) + "\r\n"
    path = tmp_path / f"{kind}.csv"

    path.write_text(head, newline="")
    with pytest.raises(ValueError, match="no data rows"):
        load(path)

    path.write_text(head + row + row + "\r\n", newline="")
    assert n_rows(load(path)) == 2

    path.write_text(head + row + "1.0,2.0\r\n" + row, newline="")
    with pytest.raises(ValueError, match="line 3"):
        load(path)
