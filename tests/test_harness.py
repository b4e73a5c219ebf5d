"""Experiment harness: RMSSD, reports, ablation suite, closed-loop determinism."""
import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aeroalloc
from aeroalloc import harness, plant
from aeroalloc.allocator import TrackingConfig
from aeroalloc.harness import (
    ExperimentConfig,
    MetricsReport,
    VARIANTS,
    closed_loop_metrics,
    closed_loop_run,
    dataset_hash,
    format_report_text,
    generate_speed_datasets,
    load_report_json,
    make_target_sequence,
    resolve_out_root,
    rmssd,
    run_ablation_suite,
    write_report_json,
)

from conftest import constant_affine_model


def tiny_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        seed=0, epochs=4, hidden=(8, 8), duration_s=4.0,
        train_speeds=(8.0, 12.0), test_speeds=(9.0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# rmssd
# ---------------------------------------------------------------------------


def test_rmssd_constant_series_is_zero():
    per_input, avg = rmssd(np.ones((50, 4)) * 3.7)
    assert np.array_equal(per_input, np.zeros(4))
    assert avg == 0.0


def test_rmssd_alternating_unit_series():
    series = np.zeros((20, 4))
    series[::2, 1] = 1.0
    series[1::2, 1] = -1.0
    per_input, avg = rmssd(series)
    assert per_input[1] == pytest.approx(2.0)
    assert np.array_equal(per_input[[0, 2, 3]], np.zeros(3))
    assert avg == pytest.approx(0.5)


def test_rmssd_five_step_hand_oracle():
    # diffs on input 0: 1, 2, -1, 3 -> sqrt(mean([1,4,1,9])) = sqrt(15/4)
    series = np.zeros((5, 4))
    series[:, 0] = [0.0, 1.0, 3.0, 2.0, 5.0]
    per_input, avg = rmssd(series)
    assert per_input[0] == pytest.approx(np.sqrt(15.0 / 4.0))
    assert avg == pytest.approx(np.sqrt(15.0 / 4.0) / 4.0)


@given(offset=st.floats(-100.0, 100.0), seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_rmssd_translation_invariant(offset, seed):
    series = np.random.default_rng(seed).normal(size=(30, 4))
    base = rmssd(series)
    shifted = rmssd(series + offset)
    assert np.allclose(base[0], shifted[0], atol=1e-9)
    assert shifted[1] == pytest.approx(base[1], abs=1e-9)


def test_rmssd_accepts_a_list_of_command_arrays():
    series = [np.array([float(k), 0.0, 0.0, 0.0]) for k in range(4)]
    per_input, avg = rmssd(series)
    assert per_input[0] == pytest.approx(1.0)
    assert avg == pytest.approx(0.25)


def test_rmssd_validation():
    with pytest.raises(ValueError):
        rmssd(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        rmssd(np.zeros((10, 3)))


# ---------------------------------------------------------------------------
# config and hashing
# ---------------------------------------------------------------------------


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(variant="affine_fancy")
    with pytest.raises(ValueError):
        ExperimentConfig(train_speeds=())


def test_train_config_wiring():
    cfg = ExperimentConfig(lambda_sym=0.25)
    assert cfg.train_config("affine_sym").sym.lambda_sym == 0.25
    assert cfg.train_config("affine").sym.lambda_sym == 0.0
    assert cfg.train_config("affine_no_ws").wing_sensors is False
    assert cfg.train_config("unstructured_no_ws").wing_sensors is False
    assert cfg.train_config("unstructured").wing_sensors is True
    with pytest.raises(ValueError):
        cfg.train_config("mystery")


def test_gust_spec_round_trip():
    assert harness._gust_spec(ExperimentConfig(gust_mode="off")) == {"mode": "off"}
    spec = harness._gust_spec(ExperimentConfig(gust_mode="shear", gust_yaw_deg=2.0))
    assert spec == {"mode": "shear", "amplitude": 0.4, "yaw_deg": 2.0}


def test_dataset_hash_sensitivity(rng):
    a = (rng.normal(size=(5, 13)), rng.normal(size=(5, 4)), rng.normal(size=(5, 6)))
    assert dataset_hash(a) == dataset_hash(a)
    b = tuple(arr.copy() for arr in a)
    b[0][0, 0] += 1e-9
    assert dataset_hash(a) != dataset_hash(b)
    assert dataset_hash(a, b) != dataset_hash(b, a)


def test_resolve_out_root_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(harness.OUT_ROOT_ENV, raising=False)
    assert resolve_out_root(None) == harness.Path(harness.DEFAULT_OUT_ROOT)
    monkeypatch.setenv(harness.OUT_ROOT_ENV, str(tmp_path / "env"))
    assert resolve_out_root(None) == tmp_path / "env"
    assert resolve_out_root(tmp_path / "flag") == tmp_path / "flag"


# ---------------------------------------------------------------------------
# datasets and targets
# ---------------------------------------------------------------------------


def test_generate_speed_datasets_layout(tmp_path):
    cfg = tiny_cfg()
    params = plant.PlantParams()
    sets = generate_speed_datasets(cfg, (8.0, 12.0), params, tmp_path)
    assert set(sets) == {8.0, 12.0}
    assert (tmp_path / "dyn_va8.csv").exists()
    assert (tmp_path / "dyn_va12_conditions.csv").exists()
    obs, u, y = sets[8.0]
    assert obs.shape[0] == u.shape[0] == y.shape[0] == 200
    # per-speed seeds differ, so the runs are not clones of each other
    assert not np.array_equal(sets[8.0][1], sets[12.0][1])


def test_make_target_sequence_rides_schedule_baseline():
    params = plant.PlantParams()
    t = np.arange(100) * 0.02
    alpha = np.linspace(-5.0, 5.0, 100)
    beta = np.linspace(2.0, -2.0, 100)
    targets = make_target_sequence(params, 11.0, t, seed=3, alpha_deg=alpha, beta_deg=beta)
    assert targets.shape == (100, 6)
    for k in (0, 37, 99):
        cond = plant.TunnelCondition(11.0, alpha[k], beta[k])
        base, _ = plant.true_affine_terms(cond, params)
        diff = targets[k] - base
        # modulation touches only lift and roll, and stays bounded
        assert np.allclose(diff[[0, 1, 4, 5]], 0.0, atol=1e-12)
    ref = plant.dynamic_pressure(11.0, params) * params.wing_area * params.cl0
    assert np.max(np.abs(targets[:, 2] - [plant.true_affine_terms(
        plant.TunnelCondition(11.0, alpha[k], beta[k]), params)[0][2]
        for k in range(100)])) <= 0.2 * ref + 1e-9
    again = make_target_sequence(params, 11.0, t, seed=3, alpha_deg=alpha, beta_deg=beta)
    assert np.array_equal(targets, again)
    assert not np.array_equal(
        targets, make_target_sequence(params, 11.0, t, seed=4, alpha_deg=alpha, beta_deg=beta)
    )


def test_closed_loop_run_is_seed_deterministic():
    model = constant_affine_model(
        np.zeros(6), np.vstack([np.eye(4) * 0.3, np.zeros((2, 4))])
    )
    cfg = tiny_cfg(duration_s=2.0)
    a = closed_loop_run(model, cfg, 10.0, seed=5)
    b = closed_loop_run(model, cfg, 10.0, seed=5)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.achieved, b.achieved)
    c = closed_loop_run(model, cfg, 10.0, seed=6)
    assert not np.array_equal(a.controls, c.controls)


def test_closed_loop_metrics_block():
    model = constant_affine_model(
        np.zeros(6), np.vstack([np.eye(4) * 0.3, np.zeros((2, 4))])
    )
    tlog = closed_loop_run(model, tiny_cfg(duration_s=2.0), 10.0, seed=5)
    block = closed_loop_metrics(tlog)
    assert set(block) == {"rmssd", "tracking_rmse", "clamped_fraction"}
    assert len(block["rmssd"]["per_input"]) == 4
    assert block["rmssd"]["average"] >= 0.0
    assert block["tracking_rmse"] >= 0.0
    assert 0.0 <= block["clamped_fraction"] <= 1.0
    assert block["rmssd"]["average"] == pytest.approx(
        np.mean(block["rmssd"]["per_input"])
    )


# ---------------------------------------------------------------------------
# ablation suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    report = run_ablation_suite(tiny_cfg(), out)
    return report, out


def test_suite_covers_all_variants(tiny_suite):
    report, _ = tiny_suite
    assert set(report.variants) == set(VARIANTS)
    assert report.train_speeds == (8.0, 12.0)
    assert len(report.split_hash) == 64


def test_suite_entry_shape(tiny_suite):
    report, _ = tiny_suite
    for variant, entry in report.variants.items():
        assert set(entry["rmse"]) == {"in_dist", "va8", "va12", "va9"}
        assert all(v >= 0.0 for v in entry["rmse"].values())
        # 9 m/s sits between the training speeds: the held-out interpolation
        assert list(entry["inflation_pct"]) == ["va9"]
        assert len(entry["per_channel_in_dist"]) == 6
        if variant.startswith("unstructured"):
            assert entry["sym_residual"] is None
        else:
            assert entry["sym_residual"] >= 0.0


def test_suite_writes_reports(tiny_suite):
    _, out = tiny_suite
    reports = out / "reports"
    assert (reports / "suite_report.json").exists()
    assert (reports / "suite_report.csv").exists()
    text = (reports / "suite_report.txt").read_text()
    for variant in VARIANTS:
        assert variant in text
    csv_text = (reports / "suite_report.csv").read_text()
    assert "affine_no_ws,rmse,in_dist" in csv_text


def test_suite_report_round_trips(tiny_suite, tmp_path):
    report, _ = tiny_suite
    path = tmp_path / "report.json"
    write_report_json(report, path)
    loaded = load_report_json(path)
    assert loaded.to_dict() == report.to_dict()
    assert MetricsReport.from_dict(report.to_dict()).to_dict() == report.to_dict()


def test_suite_report_config_block_round_trips(tiny_suite, tmp_path):
    report, _ = tiny_suite
    assert report.config["version"] == aeroalloc.__version__
    assert report.config["epochs"] == 4
    assert report.config["hidden"] == [8, 8]
    assert report.config["closed_loop_speed"] is None
    assert set(report.config) == set(vars(tiny_cfg())) | {"version"}
    path = tmp_path / "report.json"
    write_report_json(report, path)
    assert json.loads(path.read_text())["config"] == report.config
    assert load_report_json(path).config == report.config
    # reports written before the block existed still load
    doc = report.to_dict()
    del doc["config"]
    assert MetricsReport.from_dict(doc).config == {}


def test_suite_reruns_byte_identical(tmp_path):
    cfg = tiny_cfg(train_speeds=(10.0,), test_speeds=(10.0,), duration_s=2.0, epochs=2)
    run_ablation_suite(cfg, tmp_path / "a")
    run_ablation_suite(cfg, tmp_path / "b")
    for name in ("suite_report.json", "suite_report.csv", "suite_report.txt"):
        a = (tmp_path / "a" / "reports" / name).read_bytes()
        b = (tmp_path / "b" / "reports" / name).read_bytes()
        assert a == b, name


def test_suite_closed_loop_rmssd_block(tmp_path):
    cfg = tiny_cfg(
        train_speeds=(10.0,), test_speeds=(10.0,), duration_s=2.0, epochs=2,
        closed_loop_speed=10.0,
    )
    report = run_ablation_suite(cfg, tmp_path)
    for entry in report.variants.values():
        block = entry["closed_loop"]
        assert len(block["rmssd"]["per_input"]) == 4
        assert all(v >= 0.0 for v in block["rmssd"]["per_input"])
        assert block["rmssd"]["average"] >= 0.0
    csv_text = (tmp_path / "reports" / "suite_report.csv").read_text()
    assert "rmssd,average" in csv_text
    rows = list(csv.reader(csv_text.splitlines()))
    for variant, entry in report.variants.items():
        written = {metric for v, metric, _, _ in rows[1:] if v == variant}
        assert set(entry["closed_loop"]) <= written


def test_format_report_text_compare(tiny_suite):
    report, _ = tiny_suite
    text = format_report_text(report, compare=["affine_sym", "unstructured"])
    assert "affine_sym" in text and "unstructured" in text
    assert "affine_no_ws" not in text
    with pytest.raises(ValueError):
        format_report_text(report, compare=["mystery"])
