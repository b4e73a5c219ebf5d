"""The one table codec: exact float round trip, line format, and the loaders' edge cases."""
import ast
import tracemalloc
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


def test_reading_a_table_takes_under_twice_the_memory_of_its_array(tmp_path):
    # a dataset's 6000 rows of 23 columns; numpy's parser fills the array directly
    values = np.random.default_rng(5).normal(size=(6000, 23)) * 10.0
    header = [f"c{i}" for i in range(23)]
    path = tmp_path / "t.csv"
    write_table(path, header, values.tolist())
    tracemalloc.start()
    try:
        back = read_table(path, header)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, values)
    assert peak < 2 * back.nbytes


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


def test_file_headers_are_pinned():
    # the headers derive from the layout owners; the files keep these columns
    assert dynamics.DYNAMICS_CSV_HEADER == [
        "Va0", "alpha0", "beta0", "Va1", "alpha1", "beta1",
        "ps0", "ps1", "ps2", "ps3", "ps4", "ps5", "ps6",
        "d_la", "d_ra", "d_el", "d_ru", "Fx", "Fy", "Fz", "Tx", "Ty", "Tz",
    ]
    assert allocator.TRACKING_CSV_HEADER == [
        "t",
        "target_fx", "target_fy", "target_fz", "target_tx", "target_ty", "target_tz",
        "predicted_fx", "predicted_fy", "predicted_fz", "predicted_tx", "predicted_ty",
        "predicted_tz",
        "achieved_fx", "achieved_fy", "achieved_fz", "achieved_tx", "achieved_ty", "achieved_tz",
        "u_la", "u_ra", "u_el", "u_ru", "clamped_la", "clamped_ra", "clamped_el", "clamped_ru",
    ]
    assert probe.CALIBRATION_CSV_HEADER == [
        "p1", "p2", "p3", "p4", "p5", "Va", "alpha_deg", "beta_deg"]


LOADERS = {
    "dynamics": (dynamics.load_dynamics_csv, dynamics.DYNAMICS_CSV_HEADER, lambda r: len(r[0])),
    "calibration": (probe.load_calibration_csv, probe.CALIBRATION_CSV_HEADER, len),
    "tracking": (lambda p: read_table(p, allocator.TRACKING_CSV_HEADER),
                 allocator.TRACKING_CSV_HEADER, len),
}


@pytest.mark.filterwarnings("error")  # a header-only file raises, and warns nothing
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

    path.write_text(head + "\r\n" + row + row.replace("1.0", "x", 1), newline="")
    with pytest.raises(ValueError, match="line 4: could not convert string to float: 'x'"):
        load(path)

    path.write_text(head + row + row.replace("1.0", '"1.0"', 1), newline="")  # only csv unquotes
    assert n_rows(load(path)) == 2
