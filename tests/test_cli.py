"""Command-line front end: exit codes, parser validation, report formatting."""
import json
from pathlib import Path

import pytest

from aeroalloc import cli, harness, nncore, plant
from aeroalloc.harness import MetricsReport


@pytest.fixture(autouse=True)
def isolated_out(monkeypatch, tmp_path):
    # keep stray defaults from writing into the working directory
    monkeypatch.setenv(harness.OUT_ROOT_ENV, str(tmp_path / "default_root"))


def test_speed_list_parsing():
    assert cli._speeds("10,14.5") == (10.0, 14.5)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["eval", "--model", "m.json", "--speeds", "ten"])


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "m.json", "--speeds", "10,10"],
    ["report", "--run", "--speeds", "14,10,14.0"],
])
def test_repeated_speed_exits_2(capsys, argv):
    # a repeat would write one eval set twice, at two seeds
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "repeats a speed" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["/../../x", "a/b", ".."])
def test_train_calib_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    # a path in the name would put the model outside the output root
    root = tmp_path / "root"
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-calib", "--data", "c.csv", "--name", name, "--out", str(root)])
    assert exc.value.code == 2
    assert f"{name!r} is not a plain file name" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def test_gen_data_outside_the_envelope_fails_before_the_first_step(tmp_path, capsys,
                                                                   monkeypatch):
    steps = []
    observe = plant.make_observation
    monkeypatch.setattr(plant, "make_observation", lambda *a: steps.append(a) or observe(*a))
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"kind": "dynamics", "name": "wide", "speed": 9.0,
                                 "duration_s": 2.0, "alpha_range": [-30, 30]}))
    root = tmp_path / "root"
    assert cli.main(["gen-data", "--protocol", str(proto), "--out", str(root)]) == 1
    assert "outside the +-15 deg envelope" in capsys.readouterr().err
    assert steps == []
    assert not root.exists()


def test_gen_data_refuses_calib_with_a_calibration_protocol(tmp_path, capsys):
    nets = [tmp_path / f"net{i}.json" for i in range(2)]
    for path in nets:
        nncore.save_network(nncore.init_network((5, 4, 3), 0), path)
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"kind": "calibration", "name": "cal", "repeats": 1}))
    root = tmp_path / "root"
    argv = ["gen-data", "--protocol", str(proto), "--calib", *map(str, nets), "--out", str(root)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "a calibration protocol reads raw taps; it takes no probe models" in err
    assert not root.exists()


DYN = {"kind": "dynamics", "name": "bad", "speed": 9.0, "duration_s": 2.0}
CAL = {"kind": "calibration", "name": "bad", "repeats": 1}


@pytest.mark.parametrize("protocol, message", [
    ({"kind": "dynamics", "duraton_s": 2.0}, "dynamics protocol has unknown keys ['duraton_s']"),
    ({**DYN, "excitation": {"sigam": 1.0}}, "excitation has unknown keys ['sigam']"),
    ({**CAL, "repeat": 2}, "calibration protocol has unknown keys ['repeat']"),
    ({**DYN, "dt": -0.02}, "dt must be positive and finite"),
    ({**DYN, "dt": float("nan")}, "dt must be positive and finite"),
    ({**DYN, "duration_s": 0.0}, "duration_s must be positive and finite"),
    ({**DYN, "stage": "II", "hold_s": 0.0}, "hold_s must be positive and finite"),
    ({**CAL, "dt": float("inf")}, "dt must be positive and finite"),
    ({**CAL, "repeats": 0}, "repeats must be >= 1"),
    ({**DYN, "duration_s": 0.001}, "schedule has no steps"),
    ({**DYN, "stage": "II", "hold_s": 0.001}, "schedule has no steps"),
    ({**CAL, "speeds": []}, "calibration protocol produces no rows"),
    ([1, 2], "proto.json: a protocol must be a JSON object, got list"),
    ("dynamics", "proto.json: a protocol must be a JSON object, got str"),
    (None, "proto.json: a protocol must be a JSON object, got NoneType"),
    ({**CAL, "speeds": [10], "alphas": [0], "betas": [0], "exclude_points": [[99, 0, 0]]},
     "exclude_points entry [99, 0, 0] is not a point of the grid"),
    ({**CAL, "exclude_points": [[10.0, 0.0]]}, "entry [10.0, 0.0] is not 3 numbers"),
    ({**CAL, "exclude_points": [["10", 0, 0]]}, "entry ['10', 0, 0] is not 3 numbers"),
    (b'{"kind": "dynamics", ', "proto.json: Expecting property name enclosed in double quotes"),
    # each bad value is named by its key, and by its block where it has one
    ({**DYN, "gust": {"mdoe": "shedding", "amplitude": 0.4}}, "gust has unknown keys ['mdoe']"),
    ({**DYN, "gust": "shedding"}, "gust must be a JSON object, got str"),
    ({**DYN, "gust": {"mode": "shedding", "amplitude": "0.4"}},
     "gust amplitude must be a number, got '0.4'"),
    ({**DYN, "stage": "II", "setpoints": [[1]]},
     "setpoints must be a non-empty list of [alpha, beta] pairs, got [[1]]"),
    ({**DYN, "stage": "II", "setpoints": []},
     "setpoints must be a non-empty list of [alpha, beta] pairs, got []"),
    ({**DYN, "alpha_range": [1, 2, 3]}, "alpha_range must be two numbers [low, high], got [1, 2, 3]"),
    ({**DYN, "alpha_range": 5}, "alpha_range must be two numbers [low, high], got 5"),
    ({**DYN, "speed": "abc"}, "speed must be a number, got 'abc'"),
    ({**CAL, "speeds": "abc"}, "speeds must be a list of numbers, got 'abc'"),
    ({**CAL, "repeats": 2.7}, "repeats must be >= 1 and a whole number, got 2.7"),
    ({**CAL, "exclude_points": 5}, "exclude_points must be a list, got 5"),
    ({**DYN, "excitation": {"ar": "abc"}}, "excitation ar must be a number, got 'abc'"),
    ({**DYN, "excitation": {"sigma": True}}, "excitation sigma must be a number, got True"),
    ({**DYN, "name": "../../x"}, "name must be a plain file name, got '../../x'"),
    ({**CAL, "name": "../cal"}, "name must be a plain file name, got '../cal'"),
])
def test_gen_data_rejects_unusable_protocols_before_writing(tmp_path, capsys, protocol, message):
    proto = tmp_path / "proto.json"  # bytes are the file's text as it is, not a document
    proto.write_bytes(protocol if isinstance(protocol, bytes) else json.dumps(protocol).encode())
    root = tmp_path / "root"
    assert cli.main(["gen-data", "--protocol", str(proto), "--out", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    # nothing is written, inside the output root or beside it
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [proto]


@pytest.mark.parametrize("duration", ["0", "0.02", "-1"])
def test_track_leaves_no_artifact_when_the_run_is_too_short(tmp_path, capsys, duration):
    root = tmp_path / "root"
    code = cli.main(["track", "--model", str(_model_file(tmp_path)), "--duration", duration,
                     "--out", str(root)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not root.exists()


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
    assert not (tmp_path / "root").exists()


def test_track_at_zero_speed_names_the_airspeed(tmp_path, capsys):
    # the default shedding gust derives its frequency from the airspeed
    root = tmp_path / "root"
    code = cli.main(["track", "--model", str(_model_file(tmp_path)), "--speed", "0",
                     "--duration", "1", "--out", str(root)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: a shedding gust takes its frequency from the airspeed, "
        "which must be positive, got 0 m/s\n")
    assert not root.exists()


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


def _dynamics_csv(tmp_path, seconds=2.0):
    proto = tmp_path / "dyn.json"
    proto.write_text(json.dumps(
        {"kind": "dynamics", "name": "small", "speed": 10.0, "duration_s": seconds}
    ))
    assert cli.main(["gen-data", "--protocol", str(proto), "--out", str(tmp_path / "data")]) == 0
    return tmp_path / "data" / "datasets" / "small.csv"


def _calibration_csv(tmp_path):
    proto = tmp_path / "cal.json"
    proto.write_text(json.dumps({"kind": "calibration", "name": "cal", "repeats": 1}))
    assert cli.main(["gen-data", "--protocol", str(proto), "--out", str(tmp_path / "data")]) == 0
    return tmp_path / "data" / "datasets" / "cal_probe0.csv"


def _model_file(tmp_path):
    import numpy as np

    from aeroalloc import dynamics
    from conftest import constant_affine_model

    path = tmp_path / "m.json"
    dynamics.save_dynamics_model(constant_affine_model(np.zeros(6), np.zeros((6, 4))), path)
    return path


@pytest.mark.parametrize("argv", [
    ["train-dyn", "--epochs", "0"],
    ["train-calib", "--epochs", "0"],
    ["train-calib", "--epochs", "-2"],
    ["report", "--run", "--epochs", "0"],
])
def test_non_positive_epochs_exit_1_before_writing(tmp_path, capsys, argv):
    data = {"train-dyn": _dynamics_csv(tmp_path), "train-calib": _calibration_csv(tmp_path)}
    if argv[0] in data:
        argv = [*argv, "--data", str(data[argv[0]])]
    root = tmp_path / "root"
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be positive" in err and err.count("\n") == 1
    assert not [p for p in root.rglob("*") if p.is_file()]


@pytest.mark.parametrize("doc, field", [
    ('{"probe_sensitivity": NaN}', "probe_sensitivity"),
    ('{"wing_noise_pa": NaN}', "wing_noise_pa"),
    ('{"cl_alpha": 1e400}', "cl_alpha"),
    ('{"force_noise_n": -1}', "force_noise_n"),
    ('{"gust_weight": {"probe0": 1.0}}', "gust_weight"),
    ('{"cl_alpha": "0.1"}', "cl_alpha"),
    ('{"wing_tap_a": 3}', "wing_tap_a"),
    ('{"gust_weight": [1, 2]}', "gust_weight"),
])
def test_gen_data_rejects_bad_plant_params_before_writing(tmp_path, capsys, doc, field):
    params_path = tmp_path / "params.json"
    params_path.write_text(doc)
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"kind": "dynamics", "name": "d", "speed": 9.0,
                                 "duration_s": 1.0, "gust": {"mode": "shedding"}}))
    root = tmp_path / "root"
    code = cli.main(["gen-data", "--protocol", str(proto), "--params", str(params_path),
                     "--out", str(root)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1
    assert not list(root.rglob("*.csv"))


def test_gen_data_names_a_plant_parameter_file_that_holds_no_object(tmp_path, capsys):
    params_path = tmp_path / "params.json"
    params_path.write_text("[1]")
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"kind": "dynamics", "duration_s": 1.0}))
    root = tmp_path / "root"
    code = cli.main(["gen-data", "--protocol", str(proto), "--params", str(params_path),
                     "--out", str(root)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {params_path}: a plant parameter file must be a JSON object, got list\n")
    assert not root.exists()


@pytest.mark.parametrize("argv", [
    ["train-dyn", "--data", "d.csv", "--params", "p.json"],  # the plant is in the data
    ["track", "--model", "m.json", "--gust", "shear"],  # shear comes from protocol JSON
])
def test_options_a_command_does_not_take_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_eval_speeds_scores_the_suites_eval_sets(tmp_path, capsys):
    import numpy as np

    from aeroalloc import dynamics, plant

    root = tmp_path / "root"
    (root / "datasets").mkdir(parents=True)
    (root / "datasets" / "dyn_va10.csv").write_text("not a dynamics table\n")
    model_path = _model_file(tmp_path)
    argv = ["eval", "--model", str(model_path), "--speeds", "10,14", "--seed", "3"]
    assert cli.main([*argv, "--out", str(root)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dataset  rmse\nva10     ")

    ref_dir = tmp_path / "ref"
    cfg = harness.ExperimentConfig(seed=3, test_speeds=(10.0, 14.0))
    sets = {s: harness.generate_eval_set(cfg, s, plant.PlantParams(), ref_dir) for s in (10.0, 14.0)}
    for name in ("dyn_va10_eval.csv", "dyn_va14_eval.csv"):
        assert (root / "datasets" / name).read_bytes() == (ref_dir / name).read_bytes()
    model = dynamics.load_dynamics_model(model_path)
    report = json.loads((root / "reports" / "eval_m.json").read_text())
    assert report["rmse"] == {
        f"va{s:g}": dynamics.eval_rmse(model, sets[s]) for s in (10.0, 14.0)
    }
    assert np.isfinite(list(report["rmse"].values())).all()


def test_eval_gives_speeds_that_print_alike_a_row_each(tmp_path, capsys):
    # under %g 10.0000001 prints as 10; its eval set and row take its repr
    root = tmp_path / "root"
    argv = ["eval", "--model", str(_model_file(tmp_path)), "--speeds", "10,10.0000001"]
    assert cli.main([*argv, "--out", str(root)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[:3]] == ["dataset", "va10", "va10.0000001"]
    assert sorted(p.name for p in (root / "datasets").glob("*_eval.csv")) == [
        "dyn_va10.0000001_eval.csv", "dyn_va10_eval.csv"]


@pytest.mark.parametrize("data, speeds, key", [
    (["a/va10.csv"], ["--speeds", "10"], "va10"),  # a stem named like a speed's label
    (["a/small.csv", "b/small.csv"], [], "small"),  # one stem in two directories
])
def test_eval_rows_sharing_a_key_fail_before_anything_runs(tmp_path, capsys, data, speeds, key):
    source = _dynamics_csv(tmp_path)
    for name in data:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(source.read_bytes())
    root = tmp_path / "root"
    argv = ["eval", "--model", str(_model_file(tmp_path)),
            "--data", *(str(tmp_path / name) for name in data), *speeds, "--out", str(root)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: two eval rows would share the key {key!r}\n"
    assert not root.exists()  # no eval set generated, no report written


def test_eval_prints_data_rows_as_given_then_speed_rows_by_speed(tmp_path, capsys):
    source = _dynamics_csv(tmp_path)
    for name in ("zeta.csv", "alpha.csv"):
        (tmp_path / name).write_bytes(source.read_bytes())
    root = tmp_path / "root"
    argv = ["eval", "--model", str(_model_file(tmp_path)), "--data", str(tmp_path / "zeta.csv"),
            str(tmp_path / "alpha.csv"), "--speeds", "14,8,10", "--out", str(root)]
    capsys.readouterr()
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[1:6]] == ["zeta", "alpha", "va8", "va10", "va14"]
    report = (root / "reports" / "eval_m.json").read_text()
    assert list(json.loads(report)["rmse"]) == ["alpha", "va10", "va14", "va8", "zeta"]


def test_readme_quick_start_protocol_writes_the_file_train_dyn_reads(tmp_path):
    # the quick start writes its protocol with a heredoc and trains on gen-data's output
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("cat > protocols/dyn10.json <<'EOF'\n", readme.index("## Quick start"))
    body = readme[start:].split("\n", 1)[1].split("\nEOF\n", 1)[0]
    assert "--protocol protocols/dyn10.json" in readme
    assert "train-dyn --data out/datasets/dyn_va10.csv" in readme
    paths = plant.generate_dataset(json.loads(body), plant.PlantParams(), 0, tmp_path)
    assert [p.name for p in paths] == ["dyn_va10.csv", "dyn_va10_conditions.csv"]


@pytest.mark.parametrize("speeds", ["14", "14,10"])
def test_eval_speeds_writes_the_sets_report_run_writes(tmp_path, monkeypatch, speeds):
    # the suite's eval sets for a list, whatever its order, are the ones eval scores
    import numpy as np

    from conftest import constant_affine_model

    model = constant_affine_model(np.zeros(6), np.zeros((6, 4)))
    monkeypatch.setattr(harness, "train_variant", lambda *args: model)
    suite, scored = tmp_path / "suite", tmp_path / "eval"
    assert cli.main(["report", "--run", "--speeds", speeds, "--out", str(suite)]) == 0
    assert cli.main(["eval", "--model", str(_model_file(tmp_path)), "--speeds", speeds,
                     "--out", str(scored)]) == 0
    for speed in speeds.split(","):
        name = f"dyn_va{speed}_eval.csv"
        assert (scored / "datasets" / name).read_bytes() == (suite / "datasets" / name).read_bytes()


class _Captured(Exception):
    pass


@pytest.mark.parametrize("command, target, flags, expected", [
    ("train-dyn", "train_variant", [], {}),
    ("train-dyn", "train_variant", ["--lambda-sym", "0.3", "--epochs", "7"],
     {"lambda_sym": 0.3, "epochs": 7}),
    ("report", "run_ablation_suite", [], {}),
    ("report", "run_ablation_suite", ["--speeds", "12", "--lambda-sym", "0.2"],
     {"test_speeds": (12.0,), "lambda_sym": 0.2}),
    ("track", "closed_loop_run", [], {"duration_s": 20.0}),
    ("track", "closed_loop_run", ["--gust", "off", "--lambda0", "0.02", "--lambda1", "0.5"],
     {"duration_s": 20.0, "gust_mode": "off", "lambda0": 0.02, "lambda1": 0.5}),
])
def test_cli_hands_the_config_defaults_to_the_harness(
    tmp_path, monkeypatch, command, target, flags, expected
):
    seen = []

    def capture(*args, **kwargs):
        seen.extend(a for a in args if isinstance(a, harness.ExperimentConfig))
        raise _Captured

    monkeypatch.setattr(harness, target, capture)
    argv = {"train-dyn": ["train-dyn", "--data", str(_dynamics_csv(tmp_path))],
            "report": ["report", "--run"],
            "track": ["track", "--model", str(_model_file(tmp_path))]}[command]
    with pytest.raises(_Captured):
        cli.main([*argv, *flags, "--seed", "4", "--out", str(tmp_path / "root")])
    assert seen == [harness.ExperimentConfig(seed=4, **expected)]


@pytest.mark.skipif(harness._openblas_threads() is None, reason="numpy without OpenBLAS")
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_runs_on_one_blas_thread(tmp_path, monkeypatch, command):
    from aeroalloc import dynamics, probe

    get, set_ = harness._openblas_threads()
    seen = []

    def capture(*args, **kwargs):
        seen.append(get())
        raise _Captured

    module, target, argv = {
        "gen-data": (plant, "generate_dataset", ["--protocol", "p.json"]),
        "train-calib": (probe, "train_calibration",
                        ["--data", str(_calibration_csv(tmp_path))]),
        "train-dyn": (harness, "train_variant", ["--data", str(_dynamics_csv(tmp_path))]),
        "eval": (dynamics, "load_dynamics_model", ["--model", "m.json", "--speeds", "10"]),
        "track": (harness, "closed_loop_run", ["--model", str(_model_file(tmp_path))]),
        "report": (harness, "load_report_json", ["--suite", "suite.json"]),
    }[command]
    monkeypatch.setattr(module, target, capture)
    argv = [command, *argv]
    previous = get()
    set_(2)
    try:
        with pytest.raises(_Captured):
            cli.main([*argv, "--out", str(tmp_path / "root")])
        assert seen == [1]
        assert get() == 2  # restored, also when the command raises
    finally:
        set_(previous)


def _short_activation_model() -> dict:
    """An affine model whose 13-8-8 backbone lists one activation for its two layers."""
    import numpy as np

    from aeroalloc import dynamics, nncore

    model = dynamics.AffineModel(
        nncore.init_network((13, 8, 8), 0, output_activation="tanh"),
        nncore.init_network((8, 6), 1), nncore.init_network((8, 24), 2),
        np.zeros(13), np.ones(13),
    )
    doc = dynamics.dynamics_model_to_dict(model)
    doc["backbone"]["activations"].pop()
    return doc


@pytest.mark.parametrize("command, flag, doc, message", [
    # the fields decode in the model class's field order, the backbone first
    ("eval", "--model", {"format": "dynmodel-v1", "kind": "affine"},
     "the model has no key 'backbone'"),
    ("eval", "--model", [1, 2], "a model must be a JSON object, got list"),
    ("track", "--model", {"format": "dynmodel-v1", "kind": "unstructured", "net": [1],
                          "in_mean": [0.0] * 17, "in_std": [1.0] * 17, "wing_sensors": True},
     "the model's 'net' must be a JSON object, got list"),
    ("gen-data", "--calib", {"version": "nncore-v1", "widths": [5, 3]},
     "the network has no key 'activations'"),
    ("report", "--suite", {"seed": 0}, "the suite report has no key 'train_speeds'"),
    ("gen-data", "--calib", {"version": "nncore-v1", "widths": [5, 3],
                             "activations": ["identity", "identity"], "weights": [[0.0] * 15],
                             "biases": [[0.0] * 3]},
     "the network lists 2 activations for widths [5, 3], which need 1"),
    ("gen-data", "--calib", {"version": "nncore-v1", "widths": [5, 4, 3],
                             "activations": ["tanh", "identity"], "weights": [[0.0] * 20],
                             "biases": [[0.0] * 4, [0.0] * 3]},
     "the network lists 1 weights for widths [5, 4, 3], which need 2"),
    ("eval", "--model", _short_activation_model(),
     "the network lists 1 activations for widths [13, 8, 8], which need 2"),
    ("report", "--suite", {"seed": 0, "train_speeds": [10], "split_hash": "abc",
                           "variants": {"affine": {"rmse": {}}}},
     "the suite report has no key 'in_dist'"),
    ("report", "--suite", {"seed": 0, "train_speeds": [10], "split_hash": "abc",
                           "variants": {"affine": {"rmse": {"in_dist": 1.0, "va14": "x"},
                                                   "inflation_pct": {}}}},
     "the suite report's affine rmse 'va14' must be a number, got str"),
    ("report", "--suite", {"seed": 0, "train_speeds": [10], "split_hash": "abc",
                           "variants": {"affine": {"rmse": {"in_dist": 1.0, "va14": 2.0},
                                                   "inflation_pct": {"va14": True}}}},
     "the suite report's affine inflation_pct 'va14' must be a number, got bool"),
    ("report", "--suite", {"seed": 0, "train_speeds": [10], "split_hash": "abc",
                           "variants": {"affine": {"rmse": {"in_dist": 1.0, "va14.0": 2.0},
                                                   "inflation_pct": {}}}},
     "report key 'va14.0' is neither in_dist nor a speed label"),
])
def test_a_malformed_artifact_fails_with_one_error_line(tmp_path, capsys, command, flag, doc,
                                                        message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"kind": "dynamics", "duration_s": 1.0}))
    argv = {"eval": ["--data", "data.csv"], "gen-data": [str(bad), "--protocol", str(proto)],
            "track": [], "report": []}[command]
    root = tmp_path / "root"
    assert cli.main([command, flag, str(bad), *argv, "--out", str(root)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not [p for p in root.rglob("*") if p.is_file()]


@pytest.mark.parametrize("command", ["eval", "track"])
def test_a_malformed_model_creates_no_directory(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    root = tmp_path / "root"
    argv = ["--speeds", "10"] if command == "eval" else []
    assert cli.main([command, "--model", str(bad), *argv, "--out", str(root)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: a model must be a JSON object, got list\n"
    assert not root.exists()


@pytest.mark.parametrize("command", ["eval", "track"])
@pytest.mark.parametrize("kind, key, value, message", [
    ("affine", "obs_mean", float("nan"), "feature means must be finite; entry 0 is nan"),
    ("affine", "obs_std", float("inf"), "feature scales must be finite; entry 0 is inf"),
    ("unstructured", "in_mean", float("nan"), "input means must be finite; entry 0 is nan"),
    ("unstructured", "in_std", float("inf"), "input scales must be finite; entry 0 is inf"),
])
def test_a_model_with_non_finite_scaling_fails_with_one_error_line(tmp_path, capsys, command,
                                                                   kind, key, value, message):
    import numpy as np

    from aeroalloc import dynamics
    from conftest import constant_affine_model, unstructured_model

    model = (constant_affine_model(np.zeros(6), np.zeros((6, 4))) if kind == "affine"
             else unstructured_model())
    doc = dynamics.dynamics_model_to_dict(model)
    doc[key][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    root = tmp_path / "root"
    argv = ["--speeds", "10"] if command == "eval" else []
    assert cli.main([command, "--model", str(bad), *argv, "--out", str(root)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not root.exists()


def test_eval_reports_do_not_depend_on_the_output_root(tmp_path):
    data = _dynamics_csv(tmp_path)
    model = _model_file(tmp_path)
    reports = []
    for root in (tmp_path / "one", tmp_path / "elsewhere" / "two"):
        assert cli.main(["eval", "--model", str(model), "--data", str(data),
                         "--out", str(root)]) == 0
        reports.append((root / "reports" / "eval_m.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["model"] == "m.json"


@pytest.mark.parametrize("command", ["train-calib", "train-dyn", "eval"])
@pytest.mark.parametrize("content", [None, "a,b\n1,2\n"], ids=["missing", "malformed"])
def test_a_missing_or_malformed_data_file_creates_no_directory(tmp_path, capsys, command,
                                                               content):
    data = tmp_path / "data.csv"
    if content is not None:
        data.write_text(content)
    root = tmp_path / "root"
    model = ["--model", str(_model_file(tmp_path))] if command == "eval" else []
    assert cli.main([command, *model, "--data", str(data), "--out", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not root.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command, flag", [
    ("train-dyn", "--lambda-sym"), ("report", "--lambda-sym"),
    ("track", "--lambda0"), ("track", "--lambda1"),
])
def test_an_unusable_penalty_fails_before_anything_is_written(tmp_path, capsys, command, flag,
                                                              value):
    argv = {"train-dyn": ["train-dyn", "--data", str(_dynamics_csv(tmp_path)), "--epochs", "2"],
            "report": ["report", "--run", "--epochs", "1"],
            "track": ["track", "--model", str(_model_file(tmp_path)), "--duration", "1"]}[command]
    root = tmp_path / "root"
    capsys.readouterr()
    assert cli.main([*argv, f"{flag}={value}", "--out", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite and >= 0" in err and err.count("\n") == 1
    assert not root.exists()


def test_report_run_rejects_an_unknown_compare_variant_before_any_work(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setattr(harness, "run_ablation_suite",
                        lambda *args, **kwargs: pytest.fail("the suite ran"))
    root = tmp_path / "root"
    argv = ["report", "--run", "--compare", "affine_sym,bogus", "--epochs", "1",
            "--out", str(root)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: variants not in report: ['bogus']\n"
    assert not root.exists()


@pytest.mark.parametrize("speeds, message", [
    ("nan", "tunnel airspeed must be finite and >= 0, got nan"),
    ("10,inf", "tunnel airspeed must be finite and >= 0, got inf"),
    ("-5", "tunnel airspeed must be finite and >= 0, got -5.0"),
    ("0", "a shedding gust takes its frequency from the airspeed, "
          "which must be positive, got 0 m/s"),
])
@pytest.mark.parametrize("command", ["report", "eval"])
def test_an_unusable_speed_fails_before_anything_is_written(tmp_path, capsys, command, speeds,
                                                           message):
    argv = (["report", "--run", "--epochs", "1"] if command == "report"
            else ["eval", "--model", str(_model_file(tmp_path))])
    root = tmp_path / "root"
    assert cli.main([*argv, f"--speeds={speeds}", "--out", str(root)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (root / "datasets").exists()
