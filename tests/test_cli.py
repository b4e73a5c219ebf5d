"""Command-line front end: exit codes, parser validation, report formatting."""
import json

import pytest

from aeroalloc import cli, harness
from aeroalloc.harness import MetricsReport


@pytest.fixture(autouse=True)
def isolated_out(monkeypatch, tmp_path):
    # keep stray defaults from writing into the working directory
    monkeypatch.setenv(harness.OUT_ROOT_ENV, str(tmp_path / "default_root"))


def test_speed_list_parsing():
    assert cli._speeds("10,14.5") == (10.0, 14.5)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["eval", "--model", "m.json", "--speeds", "ten"])


def test_eval_without_inputs_exits_2(tmp_path, capsys):
    import numpy as np

    from aeroalloc import dynamics
    from conftest import constant_affine_model

    model_path = tmp_path / "m.json"
    dynamics.save_dynamics_model(
        constant_affine_model(np.zeros(6), np.zeros((6, 4))), model_path
    )
    assert cli.main(["eval", "--model", str(model_path)]) == 2
    assert "needs --data or --speeds" in capsys.readouterr().err


def test_report_without_mode_exits_2(capsys):
    assert cli.main(["report"]) == 2
    assert "needs --run or --suite" in capsys.readouterr().err


def test_missing_data_file_exits_1(tmp_path, capsys):
    code = cli.main(["train-calib", "--data", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_empty_data_file_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert cli.main(["train-calib", "--data", str(empty)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {empty}")


def test_bad_protocol_json_exits_1(tmp_path):
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"kind": "mystery"}))
    assert cli.main(["gen-data", "--protocol", str(proto)]) == 1


def test_report_formats_existing_suite(tmp_path, capsys):
    report = MetricsReport(
        seed=0, train_speeds=(10.0,), split_hash="f" * 64,
        variants={
            "affine_sym": {"rmse": {"in_dist": 0.5, "va14": 0.9},
                           "inflation_pct": {"va14": 80.0},
                           "per_channel_in_dist": [0.5] * 6, "sym_residual": 0.01},
            "unstructured": {"rmse": {"in_dist": 0.5, "va14": 1.2},
                             "inflation_pct": {"va14": 140.0},
                             "per_channel_in_dist": [0.5] * 6, "sym_residual": None},
        },
    )
    path = tmp_path / "suite_report.json"
    harness.write_report_json(report, path)
    assert cli.main(["report", "--suite", str(path)]) == 0
    out = capsys.readouterr().out
    assert "affine_sym" in out and "unstructured" in out

    assert cli.main(["report", "--suite", str(path), "--compare", "affine_sym"]) == 0
    out = capsys.readouterr().out
    assert "affine_sym" in out and "unstructured" not in out

    assert cli.main(["report", "--suite", str(path), "--compare", "mystery"]) == 1


def test_gen_data_writes_under_out_root(tmp_path, capsys):
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps(
        {"kind": "dynamics", "name": "smoke", "speed": 9.0, "duration_s": 2.0}
    ))
    root = tmp_path / "root"
    assert cli.main(["gen-data", "--protocol", str(proto), "--out", str(root)]) == 0
    assert (root / "datasets" / "smoke.csv").exists()
    assert (root / "datasets" / "smoke_conditions.csv").exists()
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("excitation", [{"limit": 30.0}, {"sigma": float("nan")}])
def test_gen_data_rejects_bad_excitation_before_writing(tmp_path, capsys, excitation):
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"kind": "dynamics", "name": "bad", "speed": 9.0,
                                 "duration_s": 2.0, "excitation": excitation}))
    root = tmp_path / "root"
    assert cli.main(["gen-data", "--protocol", str(proto), "--out", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: excitation ")
    assert not list(root.rglob("*.csv"))


@pytest.mark.parametrize("gust", ["shedding", "off"])
def test_track_rejects_nan_speed(tmp_path, capsys, gust):
    import numpy as np

    from aeroalloc import dynamics
    from conftest import constant_affine_model

    model_path = tmp_path / "m.json"
    dynamics.save_dynamics_model(
        constant_affine_model(np.zeros(6), np.zeros((6, 4))), model_path
    )
    code = cli.main(["track", "--model", str(model_path), "--speed", "nan",
                     "--duration", "1", "--gust", gust, "--out", str(tmp_path / "root")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "airspeed" in err


def test_train_calib_labels_at_the_params_air_density(tmp_path):
    # taps read in rho = 1.0 air must be labelled with it, or airspeed reads ~11 % high
    import numpy as np

    from aeroalloc import nncore, plant, probe

    held_out = ((8.0, -5.0, 5.0), (10.0, 5.0, -5.0), (12.0, 0.0, 5.0))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"rho": 1.0}))
    proto = tmp_path / "cal.json"
    proto.write_text(json.dumps({"kind": "calibration", "name": "cal", "repeats": 2,
                                 "exclude_points": [list(pt) for pt in held_out]}))
    root = tmp_path / "root"
    common = ["--params", str(params_path), "--out", str(root)]
    assert cli.main(["gen-data", "--protocol", str(proto), *common]) == 0
    assert cli.main(["train-calib", "--data", str(root / "datasets" / "cal_probe0.csv"),
                     "--epochs", "100", *common]) == 0
    net = nncore.load_network(root / "models" / "calib_cal_probe0.json")
    params = plant.PlantParams(rho=1.0)
    for va, alpha, beta in held_out:
        taps = plant.probe_pressures(probe.FlowState(va, alpha, beta), params)
        est = probe.estimate_flow(net, taps, 1.0)
        assert abs(est.va - va) / va < 0.03, (va, alpha, beta, est.va)


def test_gen_data_rejects_nan_air_density_before_writing(tmp_path, capsys):
    params_path = tmp_path / "params.json"
    params_path.write_text('{"rho": NaN}')
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"kind": "calibration", "name": "cal", "repeats": 1}))
    root = tmp_path / "root"
    code = cli.main(["gen-data", "--protocol", str(proto), "--params", str(params_path),
                     "--out", str(root)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: rho ")
    assert not list(root.rglob("*.csv"))
