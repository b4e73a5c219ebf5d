"""Experiment harness: RMSSD, reports, ablation suite, closed-loop determinism."""
import dataclasses
import json
import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aeroalloc
from aeroalloc import allocator, dynamics, harness, nncore, plant
from aeroalloc.allocator import DT, AllocationProblem, TrackingConfig, track_sequence
from aeroalloc.dynamics import AffineModel, model_flat_params
from aeroalloc.harness import (
    ExperimentConfig,
    MetricsReport,
    VARIANTS,
    closed_loop_metrics,
    closed_loop_run,
    dataset_hash,
    eval_speeds,
    format_report_text,
    generate_eval_set,
    generate_speed_datasets,
    load_report_json,
    make_target_sequence,
    resolve_out_root,
    rmssd,
    run_ablation_suite,
    write_report_json,
)

from conftest import (
    Condition,
    constant_affine_model,
    count_gust_calls,
    reference_observation,
    reference_wrench,
    unstructured_model,
)


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
    with pytest.raises(ValueError, match="gust_mode"):
        ExperimentConfig(gust_mode="shear")  # a shear gust comes from protocol JSON
    with pytest.raises(ValueError):
        ExperimentConfig(train_speeds=())
    for epochs in (0, -2):
        with pytest.raises(ValueError, match="epochs must be positive"):
            ExperimentConfig(epochs=epochs)
    with pytest.raises(ValueError, match="train_speeds repeats a speed"):
        ExperimentConfig(train_speeds=(10, 10.0))
    with pytest.raises(ValueError, match="test_speeds repeats a speed"):
        ExperimentConfig(test_speeds=(14.0, 10.0, 14.0))
    ExperimentConfig(train_speeds=(10.0,), test_speeds=(10.0, 14.0))  # overlap is fine
    for bad in (np.nan, np.inf, -1.0):  # the penalties follow their owners' rules
        with pytest.raises(ValueError, match="lambda_sym must be finite and >= 0"):
            ExperimentConfig(lambda_sym=bad)
        for name in ("lambda0", "lambda1"):
            with pytest.raises(ValueError, match="penalty weights must be finite and >= 0"):
                ExperimentConfig(**{name: bad})


@pytest.mark.parametrize("field", ["train_speeds", "test_speeds"])
@pytest.mark.parametrize("speed", [float("nan"), float("inf"), -5.0])
def test_experiment_config_rejects_an_unusable_speed(field, speed):
    with pytest.raises(ValueError, match=f"tunnel airspeed must be finite and >= 0, got {speed}"):
        ExperimentConfig(**{field: (10.0, speed)})


@pytest.mark.parametrize("field", ["train_speeds", "test_speeds"])
def test_experiment_config_rejects_zero_speed_only_for_a_shedding_gust(field):
    with pytest.raises(ValueError, match="shedding gust .* must be positive, got 0 m/s"):
        ExperimentConfig(**{field: (0.0, 10.0)})
    ExperimentConfig(gust_mode="off", **{field: (0.0, 10.0)})


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
def test_experiment_config_rejects_unusable_duration(duration):
    with pytest.raises(ValueError, match="duration_s must be positive and finite"):
        ExperimentConfig(duration_s=duration)


@pytest.mark.parametrize("fraction", [1.5, 1.0, 0.0, -0.25, float("nan")])
def test_unusable_holdout_fraction_fails_before_the_suite_writes(tmp_path, fraction):
    with pytest.raises(ValueError, match=r"holdout_fraction must be in \(0, 1\)"):
        run_ablation_suite(ExperimentConfig(holdout_fraction=fraction, duration_s=2.0, epochs=1),
                           tmp_path)
    assert not (tmp_path / "datasets").exists()


@pytest.mark.parametrize("bad", [
    dict(hidden=()), dict(hidden=(0,)), dict(hidden=(8, -1)), dict(hidden=(8.5,)),
    dict(hidden=(True,)), dict(epochs=2.5), dict(epochs=True),
])
def test_a_bad_training_budget_fails_before_the_suite_writes(tmp_path, bad):
    # a budget that no trainer can run fails before anything is written or trained
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must"):
        run_ablation_suite(ExperimentConfig(duration_s=2.0, **{"epochs": 1, **bad}), tmp_path)
    assert not (tmp_path / "datasets").exists()


def test_train_config_wiring():
    cfg = ExperimentConfig(lambda_sym=0.25)
    assert cfg.train_config(VARIANTS["affine_sym"]).sym.lambda_sym == 0.25
    assert cfg.train_config(VARIANTS["affine"]).sym.lambda_sym == 0.0
    assert cfg.train_config(VARIANTS["affine_no_ws"]).wing_sensors is False
    assert cfg.train_config(VARIANTS["unstructured_no_ws"]).wing_sensors is False
    assert cfg.train_config(VARIANTS["unstructured"]).wing_sensors is True
    # a name is resolved to its row once, where it comes in
    with pytest.raises(ValueError, match="variant must be one of"):
        harness.train_variant("mystery", None, cfg)


def test_gust_spec_round_trip():
    assert harness._gust_spec(ExperimentConfig(gust_mode="off")) == {"mode": "off"}
    spec = harness._gust_spec(ExperimentConfig(gust_mode="shedding"))
    assert spec == {"mode": "shedding", "amplitude": 0.4}


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


def test_concat_datasets_shares_a_lone_dataset_and_copies_two(rng):
    a = (rng.normal(size=(5, 13)), rng.normal(size=(5, 4)), rng.normal(size=(5, 6)))
    b = (rng.normal(size=(3, 13)), rng.normal(size=(3, 4)), rng.normal(size=(3, 6)))
    lone = harness._concat_datasets([a])
    assert all(got is arr for got, arr in zip(lone, a, strict=True))
    both = harness._concat_datasets([a, b])
    for got, first, second in zip(both, a, b, strict=True):
        assert np.array_equal(got, np.concatenate([first, second]))
        assert not np.shares_memory(got, first) and not np.shares_memory(got, second)


def test_generate_speed_datasets_rejects_a_repeated_speed(tmp_path):
    # a repeat would write one file twice, at two seeds
    with pytest.raises(ValueError, match="speeds repeats a speed"):
        generate_speed_datasets(tiny_cfg(), (8.0, 12.0, 8.0), plant.PlantParams(), tmp_path)
    assert not list(tmp_path.iterdir())


def test_make_target_sequence_rides_schedule_baseline():
    params = plant.PlantParams()
    t = np.arange(100) * 0.02
    alpha = np.linspace(-5.0, 5.0, 100)
    beta = np.linspace(2.0, -2.0, 100)
    targets = make_target_sequence(params, 11.0, t, seed=3, alpha_deg=alpha, beta_deg=beta)
    assert targets.shape == (100, 6)
    for k in (0, 37, 99):
        base, _ = plant.true_affine_terms(11.0, alpha[k], beta[k], params)
        diff = targets[k] - base
        # modulation touches only lift and roll, and stays bounded
        assert np.allclose(diff[[0, 1, 4, 5]], 0.0, atol=1e-12)
    ref = plant.dynamic_pressure(11.0, params) * params.wing_area * params.cl0
    assert np.max(np.abs(targets[:, 2] - [plant.true_affine_terms(
        11.0, alpha[k], beta[k], params)[0][2]
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


def test_closed_loop_evaluates_each_gust_once_per_run(monkeypatch):
    model = constant_affine_model(
        np.zeros(6), np.vstack([np.eye(4) * 0.3, np.zeros((2, 4))])
    )
    cfg = tiny_cfg(duration_s=2.0)  # 100 steps, shedding gust
    reference = closed_loop_run(model, cfg, 10.0, seed=5)
    calls = count_gust_calls(monkeypatch)
    tlog = closed_loop_run(model, cfg, 10.0, seed=5)
    # one evaluation over all the run's times, not one per step; the
    # gust-free target baseline is closed-form and evaluates no gust
    assert calls == [("shedding", 100)]
    assert np.array_equal(tlog.controls, reference.controls)
    assert np.array_equal(tlog.achieved, reference.achieved)


@pytest.fixture(scope="module")
def flown_models(tmp_path_factory):
    """Two small trained models whose output depends on the observation."""
    cfg = tiny_cfg(duration_s=2.0, epochs=2)
    data = generate_speed_datasets(cfg, (10.0,), plant.PlantParams(),
                                   tmp_path_factory.mktemp("flown"))[10.0]
    return {v: harness.train_variant(v, data, cfg) for v in ("affine", "unstructured")}


@pytest.mark.parametrize("gust_mode", harness.GUST_MODES)
@pytest.mark.parametrize("variant", ["affine", "unstructured"])
def test_closed_loop_matches_per_step_plant_closures_bit_for_bit(flown_models, variant,
                                                                 gust_mode):
    model, speed, seed = flown_models[variant], 13.5, 5
    cfg = tiny_cfg(duration_s=2.0, gust_mode=gust_mode)  # 100 steps
    params = plant.PlantParams()
    tlog = closed_loop_run(model, cfg, speed, params=params, seed=seed)

    # The reference: closed_loop_run's set-up, flown through closures that
    # compute each step per condition, every gust evaluated and every noise
    # value drawn in the step, as the plant did before it built its
    # command-independent terms once per run.
    tracking = TrackingConfig(lambda0=cfg.lambda0, lambda1=cfg.lambda1)
    rng_sched, rng_targets, rng_noise = [
        np.random.default_rng(int(c.generate_state(1)[0]))
        for c in np.random.SeedSequence(seed).spawn(3)
    ]
    protocol = {"stage": "I", "duration_s": cfg.duration_s, "dt": DT}
    t, alpha, beta = plant.stage_schedule(protocol, params, rng_sched)
    gust = plant.gust_from_spec(harness._gust_spec(cfg), speed, params)
    conds = [Condition(speed, float(a), float(b), gust, float(tk))
             for tk, a, b in zip(t, alpha, beta)]
    targets = make_target_sequence(params, speed, t, int(rng_targets.integers(2**32)),
                                   alpha_deg=alpha, beta_deg=beta)

    def observe(k, u_prev):
        return reference_observation(params, conds[k], u_prev, rng_noise)

    def achieved(k, u):
        return reference_wrench(params, conds[k], u, rng_noise)

    reference = track_sequence(model, targets, observe, tracking, achieved_fn=achieved)
    assert tlog.controls.shape == (100, 4)
    for name in ("controls", "predicted", "achieved"):
        assert np.array_equal(getattr(tlog, name), getattr(reference, name)), name


def reference_loop(model, targets, terms, tracking: TrackingConfig) -> dict:
    """The tracking loop written out with the arithmetic of its first form: `@`
    products, the penalty terms formed at every step and each observation shaped
    before it is standardized. The TrackingLog arrays it fills, by name."""
    lambda0, lambda1, u_trim = tracking.lambda0, tracking.lambda1, tracking.u_trim
    u_prev, rows = np.zeros(4), {"predicted": [], "achieved": [], "controls": [], "clamped": []}
    for k, target in enumerate(targets):
        x = dynamics._obs_matrix(plant.make_observation(terms, k, u_prev), model.n_features)
        if model.affine_in_u:
            h = nncore._activations(model.backbone, (x - model.obs_mean) / model.obs_std)[-1]
            a = nncore._activations(model.a_head, h)[-1][0]
            b = nncore._activations(model.b_head, h)[-1].reshape(6, 4)
        else:
            x = (np.concatenate([x, u_prev[None]], axis=1) - model.in_mean) / model.in_std
            acts = nncore._activations(model.net, np.repeat(x, 6, axis=0))
            b = nncore._backprop(model.net, np.eye(6), acts)[:, -4:] / model.in_std[-4:]
            a = nncore._activations(model.net, x)[-1][0] - b @ u_prev
        q = b.T @ b
        q += (lambda0 + lambda1) * np.eye(4)
        q *= 2.0
        c = b.T @ (target - a)
        c += lambda1 * u_prev
        c += lambda0 * u_trim
        c *= 2.0
        u, info = allocator._posv()(q, c)
        assert info == 0
        u_prev = u.clip(-25.0, 25.0)
        rows["controls"].append(u_prev)
        rows["clamped"].append(np.abs(u) > 25.0 + 1e-12)
        rows["predicted"].append(a + b @ u_prev)
        d_u = (terms.control @ u_prev[:, None])[:, 0]
        rows["achieved"].append(terms.q_s * (terms.c0[k] + d_u) + terms.wrench_noise[k])
    return {name: np.array(r) for name, r in rows.items()}


@pytest.mark.parametrize("lambda0", [0.0, 0.01])
@pytest.mark.parametrize("gust_mode", harness.GUST_MODES)
@pytest.mark.parametrize("variant", ["affine", "unstructured"])
def test_closed_loop_equals_the_written_out_reference_loop_bit_for_bit(flown_models, variant,
                                                                      gust_mode, lambda0):
    model, speed, seed, params = flown_models[variant], 13.5, 5, plant.PlantParams()
    cfg = tiny_cfg(duration_s=4.0, gust_mode=gust_mode)  # 200 steps
    tracking = TrackingConfig(lambda0=lambda0, lambda1=0.1, u_trim=[3.0, -2.0, 1.5, -4.0])
    tlog = closed_loop_run(model, cfg, speed, tracking=tracking, params=params, seed=seed)

    # closed_loop_run's set-up, then the loop of reference_loop
    rng_sched, rng_targets, rng_noise = map(np.random.default_rng, dynamics._child_seeds(seed, 3))
    protocol = {"stage": "I", "duration_s": cfg.duration_s, "dt": DT}
    t, alpha, beta = plant.stage_schedule(protocol, params, rng_sched)
    gust = plant.gust_from_spec(harness._gust_spec(cfg), speed, params)
    terms = plant.run_terms(params, speed, t, alpha, beta, gust, rng_noise)
    targets = make_target_sequence(params, speed, t, int(rng_targets.integers(2**32)),
                                   alpha_deg=alpha, beta_deg=beta)
    reference = {"t": np.arange(200) * DT, "targets": targets,
                 **reference_loop(model, targets, terms, tracking)}
    for name, expected in reference.items():
        got = getattr(tlog, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("variant, model_pass", [("affine", "predict"),
                                                  ("unstructured", "affine_at")])
def test_each_step_goes_through_the_traced_layers(monkeypatch, flown_models, variant,
                                                  model_pass):
    # the benchmark's tracer and step clock wrap these module attributes, so each
    # closed-loop step must reach every one of them through its module, once
    counts = {}
    for mod, name in ((plant, "make_observation"), (plant, "true_wrench"),
                      (allocator, model_pass), (allocator, "solve")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    tlog = closed_loop_run(flown_models[variant], tiny_cfg(duration_s=1.0), 13.5, seed=5)
    assert tlog.controls.shape == (50, 4)
    assert counts == {"make_observation": 50, "true_wrench": 50, model_pass: 50, "solve": 50}


def test_out_of_envelope_schedule_fails_before_the_first_step(monkeypatch):
    model = constant_affine_model(
        np.zeros(6), np.vstack([np.eye(4) * 0.3, np.zeros((2, 4))])
    )
    steps = []
    observe = plant.make_observation
    monkeypatch.setattr(plant, "make_observation", lambda *a: steps.append(a) or observe(*a))
    monkeypatch.setattr(plant, "ENVELOPE_DEG", 0.0)  # the +-10 deg sweep leaves it
    with pytest.raises(plant.OutOfEnvelopeError, match="at t=0 s outside the \\+-0 deg"):
        closed_loop_run(model, tiny_cfg(duration_s=2.0), 10.0, seed=5)
    assert steps == []


def test_experiment_config_reads_the_owners_defaults():
    # the suite's penalties, mirror weight and widths are the tracking loop's and the
    # trainer's defaults, read from their owners rather than written again
    cfg = ExperimentConfig()
    assert (cfg.lambda0, cfg.lambda1, cfg.lambda_sym, cfg.hidden) == (0.01, 0.1, 0.1, (64, 64))
    problem = AllocationProblem(a=np.zeros(6), b=np.eye(6, 4), y_target=np.zeros(6))
    assert (problem.cfg.lambda0, problem.cfg.lambda1) == (cfg.lambda0, cfg.lambda1)
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    assert defaults["lambda0"] is problem.cfg.lambda0 is TrackingConfig.lambda0
    assert defaults["lambda1"] is problem.cfg.lambda1 is TrackingConfig.lambda1
    assert defaults["lambda_sym"] is dynamics.SymmetryConfig.lambda_sym
    assert defaults["hidden"] is dynamics.DynamicsTrainConfig.hidden
    # so a default suite trains each variant at the trainer's own widths and prior weight
    train = cfg.train_config(VARIANTS["affine_sym"])
    assert train.hidden == dynamics.DynamicsTrainConfig().hidden
    assert train.sym == dynamics.SymmetryConfig()


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


# the model family each variant's row trains
VARIANT_KINDS = {"affine_sym": "affine", "affine": "affine", "affine_no_ws": "affine",
                 "unstructured": "unstructured", "unstructured_no_ws": "unstructured"}


@pytest.mark.parametrize("variant", list(VARIANT_KINDS))
def test_each_variant_trains_what_its_row_says(variant, rng):
    assert sorted(VARIANT_KINDS) == sorted(VARIANTS)
    data = (rng.normal(size=(60, 13)), rng.uniform(-10, 10, size=(60, 4)),
            rng.normal(size=(60, 6)))
    row = VARIANTS[variant]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "only 45 samples"
        model = harness.train_variant(variant, data, tiny_cfg(epochs=1, lambda_sym=0.3))
    assert type(model) is dynamics.MODEL_KINDS[VARIANT_KINDS[variant]]
    assert model.wing_sensors == row.wing_sensors
    assert model.n_features == (13 if row.wing_sensors else 6)
    if VARIANT_KINDS[variant] == "affine":
        assert model.sym.lambda_sym == (0.3 if row.mirror_prior else 0.0)


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


def test_report_tables_order_the_speeds_by_value(tmp_path):
    # in_dist first, then va8 va10 va14, not the string order va10 va14 va8
    report = MetricsReport(seed=0, train_speeds=(10.0,), split_hash="0" * 64, variants={
        "affine": {"rmse": {"va14": 3.0, "in_dist": 1.0, "va10": 1.5, "va8": 2.0},
                   "inflation_pct": {"va14": 200.0, "va8": 100.0},
                   "per_channel_in_dist": [1.0] * 6, "sym_residual": None},
    })
    header = format_report_text(report).splitlines()[3].split()
    assert header == ["variant", "in_dist", "va8", "infl%", "va10", "infl%", "va14", "infl%"]
    harness.write_report_csv(report, tmp_path / "report.csv")
    rows = [line.split(",")[1:3] for line in (tmp_path / "report.csv").read_text().splitlines()]
    assert rows[1:7] == [["rmse", "in_dist"], ["rmse", "va8"], ["rmse", "va10"], ["rmse", "va14"],
                         ["inflation_pct", "va8"], ["inflation_pct", "va14"]]


def test_speeds_that_print_alike_get_their_own_eval_sets_and_keys(tmp_path):
    # under %g 10.0000001 prints as 10, so its label falls back to its repr
    assert [plant.speed_label(s) for s in (10.0, 13.5, 10.0000001, 123456789.0)] == [
        "va10", "va13.5", "va10.0000001", "va123456789.0"]
    cfg = tiny_cfg(epochs=1, duration_s=2.0, train_speeds=(10.0,), test_speeds=(10.0, 10.0000001))
    report = run_ablation_suite(cfg, tmp_path)
    assert sorted(p.name for p in (tmp_path / "datasets").glob("*_eval.csv")) == [
        "dyn_va10.0000001_eval.csv", "dyn_va10_eval.csv"]
    for entry in report.variants.values():
        assert list(entry["rmse"]) == ["in_dist", "va10", "va10.0000001"]
        assert list(entry["inflation_pct"]) == ["va10.0000001"]


def test_format_report_text_compare(tiny_suite):
    report, _ = tiny_suite
    text = format_report_text(report, compare=["affine_sym", "unstructured"])
    assert "affine_sym" in text and "unstructured" in text
    assert "affine_no_ws" not in text
    with pytest.raises(ValueError):
        format_report_text(report, compare=["mystery"])


# ---------------------------------------------------------------------------
# jobs across CPUs
# ---------------------------------------------------------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)


def _warn_and_square(i):
    warnings.warn(f"job {i}", UserWarning)
    return i * i, os.getpid()


def test_run_jobs_keeps_job_order_and_reissues_warnings(two_cpus):
    with pytest.warns(UserWarning) as caught:
        results = harness.run_jobs(_warn_and_square, [(i,) for i in range(5)])
    assert [r for r, _ in results] == [0, 1, 4, 9, 16]
    pids = [pid for _, pid in results]
    # dealt in snake order to slots 0, 1, 1, 0, 0: the caller runs slot 1,
    # jobs 1 and 2, and one forked worker runs 0, 3 and 4
    assert pids[1] == pids[2] == os.getpid()
    assert pids[0] == pids[3] == pids[4] != os.getpid()
    shown = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    assert shown == [f"job {i}" for i in range(5)]


def test_run_jobs_runs_the_last_snake_slot_in_the_caller(monkeypatch):
    monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
    with pytest.warns(UserWarning):
        results = harness.run_jobs(_warn_and_square, [(i,) for i in range(8)])
    assert [r for r, _ in results] == [i * i for i in range(8)]
    # slots 0, 1, 2, 2, 1, 0, 0, 1: the caller runs slot 2, jobs 2 and 3 only
    assert [i for i, (_, pid) in enumerate(results) if pid == os.getpid()] == [2, 3]


def _warn_same():
    warnings.warn("same place", UserWarning)


def test_run_jobs_reissues_warnings_as_warn_would(two_cpus):
    # the "default" action shows a location's warning once, as a plain loop would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        harness.run_jobs(_warn_same, [()] * 3)
    assert [str(w.message) for w in caught] == ["same place"]
    # module filters see the module that warned
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="same place", module=__name__)
        with pytest.raises(UserWarning, match="same place"):
            harness.run_jobs(_warn_same, [()] * 2)


def _blas_threads():
    return harness._openblas_threads()[0]()


@pytest.mark.skipif(harness._openblas_threads() is None, reason="numpy without OpenBLAS")
def test_run_jobs_holds_openblas_to_one_thread_per_process(two_cpus):
    before = _blas_threads()
    assert harness.run_jobs(_blas_threads, [()] * 2) == [1, 1]
    assert _blas_threads() == before


def _fail_on(i, bad):
    if i == bad:
        raise ValueError(f"job {i} failed")
    return i


@pytest.mark.parametrize("bad", [0, 1])  # the worker's share, then the caller's
def test_run_jobs_reraises_a_job_error(two_cpus, bad):
    with pytest.raises(ValueError, match=f"^job {bad} failed$"):
        harness.run_jobs(_fail_on, [(i, bad) for i in range(3)])


def test_run_jobs_raises_when_a_worker_dies(two_cpus):
    from concurrent.futures.process import BrokenProcessPool

    caller = os.getpid()

    def die_in_worker(i):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    def hung(signum, frame):
        raise TimeoutError("run_jobs waited on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            harness.run_jobs(die_in_worker, [(0,), (1,)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_suite_reissues_training_warnings(two_cpus, tmp_path):
    cfg = tiny_cfg(train_speeds=(10.0,), test_speeds=(10.0,), duration_s=2.0, epochs=2)
    with pytest.warns(UserWarning, match="only 75 samples") as caught:
        run_ablation_suite(cfg, tmp_path)
    # every variant warns: affine and affine_no_ws in the caller, affine_sym,
    # unstructured and unstructured_no_ws in the worker
    assert sum("only 75 samples" in str(w.message) for w in caught) == 5


def _model_params(model) -> np.ndarray:
    if isinstance(model, AffineModel):
        return model_flat_params(model)
    return nncore.flat_params(model.net)


def test_suite_is_the_same_on_one_and_two_cpus(tmp_path, monkeypatch):
    cfg = tiny_cfg(epochs=3)
    train = harness.train_variant
    models_dir = {}

    def train_and_save(variant, dataset, cfg):
        model = train(variant, dataset, cfg)
        np.save(models_dir["path"] / f"{variant}.npy", _model_params(model))
        return model

    monkeypatch.setattr(harness, "train_variant", train_and_save)
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "usable_cpus", lambda n=cpus: n)
        models_dir["path"] = tmp_path / f"models{cpus}"
        models_dir["path"].mkdir()
        run_ablation_suite(cfg, tmp_path / f"cpus{cpus}")
    for name in ("suite_report.json", "suite_report.csv", "suite_report.txt"):
        one = (tmp_path / "cpus1" / "reports" / name).read_bytes()
        two = (tmp_path / "cpus2" / "reports" / name).read_bytes()
        assert one == two, name
    for variant in VARIANTS:
        one = np.load(tmp_path / "models1" / f"{variant}.npy")
        two = np.load(tmp_path / "models2" / f"{variant}.npy")
        assert np.array_equal(one, two), variant
    datasets = sorted(p.name for p in (tmp_path / "cpus1" / "datasets").iterdir())
    assert datasets == sorted(p.name for p in (tmp_path / "cpus2" / "datasets").iterdir())
    assert len(datasets) == 2 * 5  # 2 train and 3 eval sets, each with its conditions
    for name in datasets:
        one = (tmp_path / "cpus1" / "datasets" / name).read_bytes()
        assert one == (tmp_path / "cpus2" / "datasets" / name).read_bytes(), name


def test_suite_caller_share_on_two_cpus(two_cpus, tmp_path, monkeypatch):
    # the snake deal of the VARIANTS order, eval sets last, balances the fixed
    # shares: a change that moves a training or an eval set to the other
    # process fails here
    train, generate = harness.train_variant, harness.generate_speed_datasets
    generate_eval = harness.generate_eval_set
    trained, generated = [], []  # appended to in this process only

    def train_here(variant, dataset, cfg):
        trained.append(variant)
        return train(variant, dataset, cfg)

    def generate_here(cfg, speeds, *args):
        generated.append(("train", tuple(speeds)))
        return generate(cfg, speeds, *args)

    def generate_eval_here(cfg, speed, *args):
        generated.append(("eval", speed))
        return generate_eval(cfg, speed, *args)

    monkeypatch.setattr(harness, "train_variant", train_here)
    monkeypatch.setattr(harness, "generate_speed_datasets", generate_here)
    monkeypatch.setattr(harness, "generate_eval_set", generate_eval_here)
    # two eval speeds, as in the default suite
    run_ablation_suite(tiny_cfg(epochs=2, train_speeds=(10.0,), test_speeds=(10.0, 14.0)),
                       tmp_path)
    assert trained == ["affine", "affine_no_ws"]
    assert generated == [("train", (10.0,)), ("eval", 10.0), ("eval", 14.0)]


def test_suite_trains_and_scores_a_sixth_variant(two_cpus, tmp_path, monkeypatch):
    # a new variant is one VARIANTS row, with no second list to place it in
    sixth = harness.Variant(harness.train_dynamics, mirror_prior=True, wing_sensors=False)
    monkeypatch.setitem(VARIANTS, "affine_sym_no_ws", sixth)
    cfg = tiny_cfg(epochs=2, duration_s=2.0, train_speeds=(10.0,), test_speeds=(10.0, 14.0))
    with pytest.warns(UserWarning, match="only 75 samples"):
        report = run_ablation_suite(cfg, tmp_path)
    assert sorted(report.variants) == sorted(VARIANTS) and len(VARIANTS) == 6
    entry = report.variants["affine_sym_no_ws"]
    assert set(entry["rmse"]) == {"in_dist", "va10", "va14"}
    assert entry["sym_residual"] is not None
    assert "affine_sym_no_ws" in (tmp_path / "reports" / "suite_report.txt").read_text()


def test_suite_writes_the_eval_sets_of_generate_eval_set(tmp_path):
    cfg = tiny_cfg(epochs=1, duration_s=2.0, train_speeds=(10.0,), test_speeds=(14.0, 10.0, 12.0))
    assert eval_speeds(cfg) == (10.0, 14.0, 12.0)
    run_ablation_suite(cfg, tmp_path / "suite")
    for speed in eval_speeds(cfg):
        generate_eval_set(cfg, speed, plant.PlantParams(), tmp_path / "direct")
        name = f"dyn_va{speed:g}_eval.csv"
        assert ((tmp_path / "suite" / "datasets" / name).read_bytes()
                == (tmp_path / "direct" / name).read_bytes()), name
    with pytest.raises(ValueError, match="9 m/s is not an eval speed"):
        generate_eval_set(cfg, 9.0, plant.PlantParams(), tmp_path / "direct")


@pytest.mark.parametrize("kind", ["affine", "unstructured"])
def test_closed_loop_calls_each_stage_once_per_step(monkeypatch, kind):
    # the benchmark's step clock and the tracer's per-step spans rely on it
    from aeroalloc import allocator

    model = (constant_affine_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))
             if kind == "affine" else unstructured_model(hidden=(8,), seed=0))
    calls = {}
    for module, name in [(plant, "make_observation"), (plant, "true_wrench"),
                         (allocator, "predict"), (allocator, "affine_at"), (allocator, "solve")]:
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    tlog = closed_loop_run(model, ExperimentConfig(duration_s=1.0), 10.0)
    assert len(tlog.t) == 50
    model_pass = "predict" if kind == "affine" else "affine_at"
    assert calls == {"make_observation": 50, model_pass: 50, "solve": 50, "true_wrench": 50}
