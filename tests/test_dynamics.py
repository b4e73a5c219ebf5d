"""Control-affine model: gradients, mirror penalty, training, linearization."""
import json
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeroalloc import dynamics, nncore
from aeroalloc.allocator import AllocationProblem, TrackingConfig, solve
from aeroalloc.dynamics import (
    CONTROL_LIMIT_DEG,
    MIRROR_SIGNS,
    AffineModel,
    DynamicsTrainConfig,
    SymmetryConfig,
    UnstructuredModel,
    affine_at,
    block_split,
    eval_rmse,
    model_flat_params,
    per_channel_rmse,
    predict,
    predict_batch,
    predict_wrench_batch,
    set_model_flat_params,
    symmetry_residual_matrix,
    symmetry_residual_norm,
    train_dynamics,
    train_unstructured,
    training_gradients,
    training_loss,
)

from conftest import finite_difference_grads, relative_error, unstructured_model


def small_model(seed=0, wing_sensors=True, lambda_sym=0.0, delta=0.5):
    n_feat = 13 if wing_sensors else 6
    sym = SymmetryConfig(lambda_sym=lambda_sym, delta=(delta,) * 6)
    return AffineModel(
        backbone=nncore.init_network((n_feat, 8), seed, output_activation="tanh"),
        a_head=nncore.init_network((8, 6), seed + 1),
        b_head=nncore.init_network((8, 24), seed + 2),
        obs_mean=np.zeros(n_feat),
        obs_std=np.ones(n_feat),
        sym=sym,
        wing_sensors=wing_sensors,
    )


def random_batch(rng, n=16):
    obs = rng.normal(size=(n, 13))
    u = rng.uniform(-20.0, 20.0, size=(n, 4))
    y = rng.normal(size=(n, 6))
    return obs, u, y


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("wing_sensors", [True, False])
@pytest.mark.parametrize("lambda_sym", [0.0, 0.3])
def test_training_gradients_match_finite_differences(rng, wing_sensors, lambda_sym):
    # small delta keeps some mirror residuals on the linear Huber branch
    model = small_model(0, wing_sensors=wing_sensors, lambda_sym=lambda_sym, delta=0.05)
    obs, u, y = random_batch(rng)
    theta0 = model_flat_params(model)

    def loss_at(theta):
        set_model_flat_params(model, theta)
        return training_loss(model, obs, u, y)

    loss, grad = training_gradients(model, obs, u, y)
    assert loss == pytest.approx(loss_at(theta0))
    fd = finite_difference_grads(loss_at, theta0, h=1e-5)
    assert relative_error(grad, fd) < 1e-6


def test_gradient_zero_for_perfect_fit(rng):
    # labels generated by the model itself: data term and its grad vanish
    model = small_model(3)
    obs, u, _ = random_batch(rng, n=8)
    a, b = predict_batch(model, obs)
    y = a + np.einsum("nck,nk->nc", b, u)
    loss, grad = training_gradients(model, obs, u, y)
    assert loss == pytest.approx(0.0, abs=1e-20)
    assert np.max(np.abs(grad)) < 1e-10


def test_training_loss_rejects_empty_batch():
    model = small_model(0)
    with pytest.raises(ValueError):
        training_loss(model, np.zeros((0, 13)), np.zeros((0, 4)), np.zeros((0, 6)))


@pytest.mark.parametrize("train_pass", [training_loss, training_gradients])
def test_training_passes_take_rows_that_pair_row_for_row(rng, train_pass):
    model = small_model(0)
    obs, u, y = random_batch(rng, n=8)
    for args, message in [
        ((obs, u, y.T), r"wrench has shape \(6, 8\), expected \(n, 6\)"),  # not reshaped
        ((obs, u[:1], y), "8 observation rows but 1 command rows"),  # not broadcast
        ((obs, u, y[:7]), "8 observation rows but 7 wrench rows"),
        ((obs[0], u[:1], y[:1]), r"observation has shape \(13,\), expected \(n, 13\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            train_pass(model, *args)


# ---------------------------------------------------------------------------
# mirror penalty
# ---------------------------------------------------------------------------


def test_symmetry_residual_matrix_hand_value():
    b = np.zeros((6, 4))
    b[:, 0] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    b[:, 1] = [-1.0, 2.0, -3.0, 4.0, -5.0, 6.0]
    resid = symmetry_residual_matrix(b)
    # signs (1,-1,1,-1,1,-1): perfectly mirrored pair cancels channel by channel
    assert np.array_equal(MIRROR_SIGNS, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    assert np.allclose(resid, np.zeros(6))
    b[2, 1] = -2.5
    resid = symmetry_residual_matrix(b)
    assert resid[2] == pytest.approx(0.5)


def test_mirror_penalty_quadratic_region_hand_value():
    b = np.zeros((6, 4))
    b[0, 0] = 0.3  # residual 0.3, below delta 0.5 -> 0.5 * 0.3^2
    penalty = SymmetryConfig().penalty(symmetry_residual_matrix(b))
    assert penalty.sum() == pytest.approx(0.5 * 0.09)


def test_mirror_penalty_linear_region_hand_value():
    b = np.zeros((6, 4))
    b[0, 0] = 3.0  # residual 3.0, above delta 0.5 -> 0.5*(3 - 0.25)
    penalty = SymmetryConfig().penalty(symmetry_residual_matrix(b))
    assert penalty.sum() == pytest.approx(0.5 * (3.0 - 0.125 / 0.5))


def test_mirror_penalty_zero_on_an_exact_mirror(rng):
    b = rng.normal(size=(6, 4))
    b[:, 1] = -MIRROR_SIGNS * b[:, 0]  # exact mirror
    assert np.array_equal(SymmetryConfig().penalty(symmetry_residual_matrix(b)), np.zeros(6))


def test_symmetry_config_validation():
    with pytest.raises(ValueError):
        SymmetryConfig(delta=(0.0,) * 6)
    with pytest.raises(ValueError):
        SymmetryConfig(lambda_sym=-0.1)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="lambda_sym must be finite and >= 0"):
            SymmetryConfig(lambda_sym=bad)
        with pytest.raises(ValueError, match="positive finite thresholds"):
            SymmetryConfig(delta=(0.5,) * 5 + (bad,))


def test_huber_known_values():
    cfg = SymmetryConfig(delta=(1.0,) * 6)
    resid = np.array([0.5, 2.0, 1.0, -0.5, -2.0, 0.0])
    # both branch formulas agree at the threshold (the third entry)
    assert np.allclose(cfg.penalty(resid), [0.125, 1.5, 0.5, 0.125, 1.5, 0.0], rtol=0, atol=1e-15)
    assert np.array_equal(cfg.penalty_grad(resid), [0.5, 1.0, 1.0, -0.5, -1.0, 0.0])


@given(e=st.floats(-1e6, 1e6), delta=st.floats(1e-3, 1e3))
def test_huber_even_and_slope_saturates(e, delta):
    cfg = SymmetryConfig(delta=(delta,) * 6)
    resid = np.full(6, e)
    assert np.array_equal(cfg.penalty(resid), cfg.penalty(-resid))
    assert np.all(np.abs(cfg.penalty_grad(resid)) <= delta + 1e-12)
    assert np.all(cfg.penalty(resid) >= 0.0)


@given(
    e=st.floats(-1e3, 1e3),
    step=st.floats(1e-6, 10.0),
    delta=st.floats(1e-2, 1e2),
)
def test_huber_monotone_in_abs(e, step, delta):
    cfg = SymmetryConfig(delta=(delta,) * 6)
    bigger = abs(e) + step
    assert np.all(cfg.penalty(np.full(6, bigger)) >= cfg.penalty(np.full(6, e)))


def test_huber_array_delta():
    # each wrench channel has its own threshold, over a batch of residual rows
    cfg = SymmetryConfig(delta=(1.0, 1.0, 0.5, 2.0, 0.25, 4.0))
    resid = np.array([[0.5, 2.0, 1.0, 1.0, -1.0, 3.0]])
    assert np.allclose(cfg.penalty(resid), [[0.125, 1.5, 0.375, 0.5, 0.21875, 4.5]])
    assert np.allclose(cfg.penalty_grad(resid), [[0.5, 1.0, 0.5, 1.0, -0.25, 3.0]])


def test_penalty_grad_clamps_with_the_bits_of_clip():
    # NaN stays NaN, +-inf goes to +-delta and -0.0 keeps its sign, as with np.clip
    delta = np.array([1.0, 1.0, 0.5, 2.0, 0.25, 4.0])
    cfg = SymmetryConfig(delta=tuple(delta))
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    rows = [np.full(6, v) for v in special] + [delta, -delta, np.nextafter(delta, np.inf),
                                               np.nextafter(-delta, -np.inf), 3.0 * delta,
                                               -1e300 * delta, 0.5 * delta]
    resid = np.vstack(rows + [np.random.default_rng(0).normal(0.0, 2.0, size=(64, 6))])
    for r in (resid, resid[7], resid[:, None, :]):  # a batch, one row and a stack
        grad, clipped = cfg.penalty_grad(r), np.clip(r, -delta, delta)
        assert grad.shape == clipped.shape and grad.tobytes() == clipped.tobytes()
    assert np.signbit(cfg.penalty_grad(resid[4])).all()


def test_symmetry_residual_norm_zero_weight_b_head(rng):
    model = small_model(0)
    for layer in model.b_head.layers:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    assert symmetry_residual_norm(model, rng.normal(size=(5, 13))) == 0.0


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_batch_consistent_with_single(rng):
    for model in (small_model(1), small_model(1, wing_sensors=False)):
        model.obs_mean = rng.normal(size=model.n_features)
        model.obs_std = rng.uniform(0.5, 2.0, size=model.n_features)
        obs = rng.normal(size=(4, 13))
        a_b, b_b = predict_batch(model, obs)
        # the kernel passes keep `forward`'s bits on the normalized observations
        h = nncore.forward(model.backbone,
                           (obs[:, :model.n_features] - model.obs_mean) / model.obs_std)
        assert a_b.tobytes() == nncore.forward(model.a_head, h).tobytes()
        assert b_b.tobytes() == nncore.forward(model.b_head, h).reshape(-1, 6, 4).tobytes()
        for k in range(4):
            a, b = predict(model, obs[k])
            assert np.allclose(a, a_b[k], atol=1e-12)
            assert np.allclose(b, b_b[k], atol=1e-12)
            a_1, b_1 = predict_batch(model, obs[k])  # a one-row batch: the same bits
            assert a.tobytes() == a_1[0].tobytes() and b.tobytes() == b_1[0].tobytes()
        with pytest.raises(ValueError, match="predict takes a single observation"):
            predict(model, obs[:2])
        wide = np.append(obs, obs[:, :1], axis=1)  # a 14th entry is rejected, not dropped
        for call in (predict, predict_batch):
            for rows, shape in ((wide[0], r"\(1, 14\)"), (wide[:1], r"\(1, 14\)"),
                                (wide[:2], r"\(2, 14\)")):
                with pytest.raises(ValueError, match=rf"observation has shape {shape}"):
                    call(model, rows)


def test_prediction_exactly_affine_in_control(rng):
    model = small_model(2)
    obs = rng.normal(size=13)
    u1, u2 = rng.uniform(-10, 10, size=(2, 4))
    y0, y1, y2, y12 = predict_wrench_batch(model, np.tile(obs, (4, 1)),
                                           [np.zeros(4), u1, u2, u1 + u2])
    assert np.allclose(y12 - y0, (y1 - y0) + (y2 - y0), atol=1e-9)
    _, b = predict(model, obs)
    assert np.allclose(y1 - y0, b @ u1, atol=1e-9)


def test_no_ws_model_ignores_wing_taps(rng):
    model = small_model(5, wing_sensors=False)
    obs = rng.normal(size=(3, 13))
    tampered = obs.copy()
    tampered[:, 6:] += 99.0
    a0, b0 = predict_batch(model, obs)
    a1, b1 = predict_batch(model, tampered)
    assert np.array_equal(a0, a1)
    assert np.array_equal(b0, b1)


def test_predict_wrench_batch_matches_manual_forward(rng):
    model = unstructured_model(hidden=(8,), seed=7)
    obs = rng.normal(size=(5, 13))
    u = rng.uniform(-5, 5, size=(5, 4))
    x = np.concatenate([obs, u], axis=1)
    expected = nncore.forward(model.net, (x - model.in_mean) / model.in_std)
    assert np.allclose(predict_wrench_batch(model, obs, u), expected)
    with pytest.raises(ValueError, match=r"observation has shape \(13,\), expected \(n, 13\)"):
        predict_wrench_batch(model, obs[0], u[:1])  # rows pair up, so one vector is no batch
    with pytest.raises(TypeError):
        predict_wrench_batch(object(), obs, u)
    with pytest.raises(TypeError):
        dynamics.dynamics_model_to_dict(object())


def suite_shaped_model(kind, wing_sensors, seed=11):
    """An untrained model of one of the suite's four shapes, hidden (64, 64), with
    a non-trivial input scaling."""
    rng = np.random.default_rng(seed)
    n_in = (13 if wing_sensors else 6) + (4 if kind == "unstructured" else 0)
    mean, std = rng.normal(size=n_in), rng.uniform(0.5, 2.0, size=n_in)
    if kind == "unstructured":
        return UnstructuredModel(nncore.init_network((n_in, 64, 64, 6), seed), mean, std,
                                 wing_sensors=wing_sensors)
    return AffineModel(nncore.init_network((n_in, 64, 64), seed, output_activation="tanh"),
                       nncore.init_network((64, 6), seed + 1),
                       nncore.init_network((64, 24), seed + 2), mean, std,
                       wing_sensors=wing_sensors)


SUITE_SHAPES = [("affine", True), ("affine", False), ("unstructured", True),
                ("unstructured", False)]


@pytest.mark.parametrize("kind, wing_sensors", SUITE_SHAPES)
@pytest.mark.parametrize("n", [0, 1, 2048, 2049, 2100, 4097, 6000, 8193, 12000])
def test_blocked_batch_passes_keep_the_whole_batch_bits(kind, wing_sensors, n):
    model = suite_shaped_model(kind, wing_sensors)
    rng = np.random.default_rng(n)
    obs, u = rng.normal(size=(n, 13)) * 3.0, rng.uniform(-25.0, 25.0, size=(n, 4))
    feats = obs[:, :model.n_features]
    if kind == "affine":
        a_ref, b_ref = dynamics._affine_terms(model, model.inputs(obs))  # one pass, every row
        a, b = predict_batch(model, obs)
        assert a.shape == (n, 6) and b.shape == (n, 6, 4)
        assert a.tobytes() == a_ref.tobytes() and b.tobytes() == b_ref.tobytes()
        y_ref = a_ref + np.einsum("nck,nk->nc", b_ref, u)
    else:
        y_ref = nncore.forward(model.net, (np.concatenate([feats, u], axis=1) - model.in_mean)
                               / model.in_std)
    y = predict_wrench_batch(model, obs, u)
    assert y.shape == (n, 6) and y.tobytes() == y_ref.tobytes()
    if n > 1:  # rows pair up, whatever the model's family and the number of blocks
        with pytest.raises(ValueError, match=f"{n} observation rows but 1 command rows"):
            predict_wrench_batch(model, obs, u[:1])


@pytest.mark.parametrize("n, blocks", [
    (2048, [2048]), (2049, [1025, 1024]), (6000, [2000] * 3), (8193, [1639] * 3 + [1638] * 2),
])
def test_batch_passes_run_near_equal_blocks_of_at_most_2048_rows(monkeypatch, n, blocks):
    seen = []
    affine_terms = dynamics._affine_terms

    def recording(model, x):
        seen.append(x.shape[0])
        return affine_terms(model, x)

    monkeypatch.setattr(dynamics, "_affine_terms", recording)
    model = suite_shaped_model("affine", True)
    obs = np.random.default_rng(0).normal(size=(n, 13))
    predict_batch(model, obs)
    predict_wrench_batch(model, obs, np.zeros((n, 4)))
    assert seen == blocks * 2


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("score, kind", [
    (symmetry_residual_norm, "affine"), (eval_rmse, "affine"), (eval_rmse, "unstructured"),
])
def test_scoring_12000_rows_holds_less_than_one_whole_set_activation(score, kind):
    # a two-speed in-distribution set; a whole-set pass holds two (12000, 64) activations
    model = suite_shaped_model(kind, True)
    rng = np.random.default_rng(2)
    obs = rng.normal(size=(12000, 13))
    data = (obs, rng.uniform(-25.0, 25.0, size=(12000, 4)), rng.normal(size=(12000, 6)))
    peak = _traced_peak(score, model, *((obs,) if score is symmetry_residual_norm else (data,)))
    assert peak < 12000 * 64 * 8


# ---------------------------------------------------------------------------
# input map
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, wing_sensors", SUITE_SHAPES)
@pytest.mark.parametrize("n_rows", [None, 1, 5], ids=["one_1d_row", "one_row", "rows"])
def test_inputs_standardize_the_family_rule_bit_for_bit(kind, wing_sensors, n_rows):
    model = suite_shaped_model(kind, wing_sensors)
    rng = np.random.default_rng(3)
    rows = n_rows or 1
    obs, u = rng.normal(size=(rows, 13)) * 3.0, rng.uniform(-25.0, 25.0, size=(rows, 4))
    n = model.n_features
    if kind == "affine":
        expected = (obs[:, :n] - model.obs_mean) / model.obs_std
    else:
        expected = (np.concatenate([obs[:, :n], u], axis=1) - model.in_mean) / model.in_std
    x = model.inputs(obs[0] if n_rows is None else obs, u)
    assert x.shape == expected.shape and x.tobytes() == expected.tobytes()
    wide = np.append(obs, obs[:, :1], axis=1)  # a 14th entry is rejected, not dropped
    with pytest.raises(ValueError, match=rf"observation has shape \({rows}, 14\), expected"):
        model.inputs(wide[0] if n_rows is None else wide, u)


def _recorded_inputs(monkeypatch) -> list:
    """Patch the families' input map to log (kind, rows) of each call."""
    calls = []
    inputs = dynamics._WrenchModel.inputs

    def recording(model, obs, u=None):
        x = inputs(model, obs, u)
        calls.append((model.kind, x.shape[0]))
        return x

    monkeypatch.setattr(dynamics._WrenchModel, "inputs", recording)
    return calls


@pytest.mark.parametrize("kind, call, rows", [
    ("affine", lambda m, obs, u, y: predict(m, obs[0]), 1),
    ("affine", lambda m, obs, u, y: predict_batch(m, obs), 8),
    ("affine", lambda m, obs, u, y: predict_wrench_batch(m, obs, u), 8),
    ("affine", lambda m, obs, u, y: training_loss(m, obs, u, y), 8),
    ("affine", lambda m, obs, u, y: training_gradients(m, obs, u, y), 8),
    ("unstructured", lambda m, obs, u, y: predict_wrench_batch(m, obs, u), 8),
    ("unstructured", lambda m, obs, u, y: affine_at(m, obs[0], u[0]), 1),
], ids=["predict", "predict_batch", "predict_wrench_batch", "training_loss",
        "training_gradients", "unstructured_predict_wrench_batch", "affine_at"])
def test_every_pass_reads_its_rows_through_the_input_map(monkeypatch, rng, kind, call, rows):
    model = MODEL_MAKERS[kind]()
    calls = _recorded_inputs(monkeypatch)
    obs, u, y = random_batch(rng, n=8)
    call(model, obs, u, y)
    assert calls == [(kind, rows)]
    # 14-entry rows, one or a batch, fail the row rule and are not read as their first 13
    with pytest.raises(ValueError, match=r"observation has shape \((1|8), 14\), expected"):
        call(model, np.append(obs, obs[:, :1], axis=1), u, y)
    assert calls == [(kind, rows)]


@pytest.mark.parametrize("kind, trainer", [("affine", train_dynamics),
                                           ("unstructured", train_unstructured)])
def test_each_trainer_standardizes_its_training_rows_through_the_input_map(monkeypatch, rng,
                                                                            kind, trainer):
    calls = _recorded_inputs(monkeypatch)
    dataset, _ = synthetic_affine_dataset(rng, n=200)
    trainer(dataset, DynamicsTrainConfig(seed=0, hidden=(4,), epochs=2))
    assert calls[0] == (kind, 160)  # the 160 training rows; 40 are held out


MODEL_MAKERS = {
    "affine": lambda: small_model(6, wing_sensors=False, lambda_sym=0.2),
    "unstructured": lambda: unstructured_model(hidden=(6,), seed=8),
}


def test_every_model_kind_has_a_maker():
    assert sorted(MODEL_MAKERS) == sorted(dynamics.MODEL_KINDS)


@pytest.mark.parametrize("kind", sorted(MODEL_MAKERS))
def test_each_model_kind_keeps_the_contract(kind, tmp_path, rng):
    model = MODEL_MAKERS[kind]()
    assert type(model) is dynamics.MODEL_KINDS[kind] and model.kind == kind
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    dynamics.save_dynamics_model(model, first)
    dynamics.save_dynamics_model(dynamics.load_dynamics_model(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["kind"] == kind
    obs, u = rng.normal(size=(5, 13)), rng.uniform(-5, 5, size=(5, 4))
    assert np.array_equal(predict_wrench_batch(model, obs, u), model.wrench(obs, u))


@pytest.mark.parametrize("make, message", [
    (lambda: AffineModel(nncore.init_network((13, 8), 0), nncore.init_network((8, 6), 1),
                         nncore.init_network((8, 24), 2), np.zeros(13), np.ones(13),
                         wing_sensors=False), r"backbone must map 6 -> 8, got 13 -> 8"),
    (lambda: AffineModel(nncore.init_network((13, 8), 0), nncore.init_network((4, 6), 1),
                         nncore.init_network((8, 24), 2), np.zeros(13), np.ones(13)),
     r"offset head must map 8 -> 6, got 4 -> 6"),
    (lambda: AffineModel(nncore.init_network((13, 8), 0), nncore.init_network((8, 6), 1),
                         nncore.init_network((8, 6), 2), np.zeros(13), np.ones(13)),
     r"effectiveness head must map 8 -> 24, got 8 -> 6"),
    (lambda: AffineModel(nncore.init_network((13, 8), 0), nncore.init_network((8, 6), 1),
                         nncore.init_network((8, 24), 2), np.zeros(6), np.ones(13)),
     "feature scaling constants must have 13 entries"),
    (lambda: UnstructuredModel(nncore.init_network((17, 6), 0), np.zeros(17), np.ones(17),
                               wing_sensors=False), r"network must map 10 -> 6, got 17 -> 6"),
    (lambda: UnstructuredModel(nncore.init_network((17, 6), 0), np.zeros(17),
                               np.r_[np.ones(16), np.nan]), "input scales must be positive"),
    (lambda: UnstructuredModel(nncore.init_network((17, 6), 0), np.zeros(17),
                               np.r_[np.ones(16), 0.0]), "input scales must be positive"),
])
def test_a_model_checks_its_parts_when_made(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("kind", sorted(MODEL_MAKERS))
@pytest.mark.parametrize("key, value, message", [
    ("mean", float("nan"), "means must be finite; entry 2 is nan"),
    ("std", float("inf"), "scales must be finite; entry 2 is inf"),
])
def test_a_model_file_with_non_finite_scaling_fails_naming_the_file(tmp_path, kind, key, value,
                                                                    message):
    # Python's json reads NaN and Infinity; a model must not standardize with them
    doc = dynamics.dynamics_model_to_dict(MODEL_MAKERS[kind]())
    prefix, what = ("obs", "feature") if kind == "affine" else ("in", "input")
    doc[f"{prefix}_{key}"][2] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        dynamics.load_dynamics_model(path)
    assert str(exc.value) == f"{path}: {what} {message}"


# ---------------------------------------------------------------------------
# actuator limit
# ---------------------------------------------------------------------------


def test_control_limit_enforced():
    assert CONTROL_LIMIT_DEG == 25.0
    p = AllocationProblem(a=np.zeros(6), b=np.vstack([np.eye(4) * 0.01, np.zeros((2, 4))]),
                          y_target=np.array([50.0, -50.0, 0.03, 0.0, 0.0, 0.0]),
                          cfg=TrackingConfig(lambda0=0.0, lambda1=1e-6))
    sol = solve(p)
    assert sol.u_star[:2].tolist() == [25.0, -25.0]
    assert sol.u_star[2] == pytest.approx(3.0, rel=0.02) and not sol.clamped[2:].any()
    with pytest.raises(ValueError, match="actuator limit"):
        TrackingConfig(u_trim=[25.5, 0.0, 0.0, 0.0])
    TrackingConfig(u_trim=[25.0, -25.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# splits and training
# ---------------------------------------------------------------------------


def test_block_split_contiguous(rng):
    obs, u, y = random_batch(rng, n=40)
    (o_tr, u_tr, y_tr), (o_ho, u_ho, y_ho) = block_split((obs, u, y), 0.25)
    assert o_tr.shape[0] == 30 and o_ho.shape[0] == 10
    assert np.array_equal(np.vstack([o_tr, o_ho]), obs)
    assert np.array_equal(np.vstack([u_tr, u_ho]), u)
    assert np.array_equal(np.vstack([y_tr, y_ho]), y)


def test_block_split_validation(rng):
    data = random_batch(rng, n=10)
    for frac in (0.0, 1.0, -0.2, float("nan")):
        with pytest.raises(ValueError, match=r"holdout_fraction must be in \(0, 1\), got"):
            block_split(data, frac)
    with pytest.raises(ValueError):
        block_split((np.zeros((2, 13)), np.zeros((2, 4)), np.zeros((2, 6))), 0.99)


def synthetic_affine_dataset(rng, n=800):
    """Ground truth exactly in the model family: y = A(o) + B u."""
    obs = rng.normal(size=(n, 13))
    u = rng.uniform(-20.0, 20.0, size=(n, 4))
    wa = rng.normal(scale=0.3, size=(6, 6))
    k = rng.normal(scale=0.05, size=(6, 4))
    y = np.tanh(obs[:, :6]) @ wa.T + u @ k.T
    return (obs, u, y), k


def test_train_dynamics_fits_affine_truth(rng):
    data, k = synthetic_affine_dataset(rng)
    cfg = DynamicsTrainConfig(
        seed=0, hidden=(16, 16), epochs=250, lr=3e-3,
        sym=SymmetryConfig(lambda_sym=0.0),  # truth is deliberately unmirrored
    )
    history = []
    model = train_dynamics(data, cfg, history=history)
    assert history[-1] < history[0]
    scale = float(np.sqrt(np.mean(np.asarray(data[2]) ** 2)))
    assert eval_rmse(model, data) < 0.2 * scale
    # recovered effectiveness close to the generating matrix
    _, b = predict(model, np.zeros(13))
    assert np.allclose(b, k, atol=0.03)


def test_loss_evaluation_runs_no_backward_pass(rng, monkeypatch):
    model = small_model(0, lambda_sym=0.3)
    obs, u, y = random_batch(rng)
    expected = training_loss(model, obs, u, y)

    def no_backward(*args, **kwargs):
        raise AssertionError("a loss evaluation ran a backward pass")

    monkeypatch.setattr(dynamics, "backward", no_backward)
    assert training_loss(model, obs, u, y) == expected


@pytest.mark.parametrize("trainer, nets", [(train_dynamics, 3), (train_unstructured, 1)])
def test_epoch_loss_is_one_forward_only_pass(rng, monkeypatch, trainer, nets):
    # 400 training rows: more than one minibatch of dynamics.BATCH_SIZE (256)
    data, _ = synthetic_affine_dataset(rng, n=500)
    n_train = 400  # VAL_FRACTION 0.2 holds out the last 100 rows
    full = {"forward": 0, "backward": 0}

    def counting(name):
        original = getattr(dynamics, name)

        def wrapper(net, x, *args, **kwargs):
            full[name] += np.shape(x)[0] == n_train
            return original(net, x, *args, **kwargs)
        return wrapper

    for name in full:
        monkeypatch.setattr(dynamics, name, counting(name))
    history = []
    trainer(data, DynamicsTrainConfig(hidden=(8,), epochs=3), history=history)
    assert len(history) == 3
    assert full == {"forward": 3 * nets, "backward": 0}


@pytest.mark.parametrize("trainer", [train_dynamics, train_unstructured])
def test_validation_rmse_runs_only_when_logged(rng, monkeypatch, caplog, trainer):
    data, _ = synthetic_affine_dataset(rng, n=100)
    calls = []

    def counting(model, dataset):
        calls.append(1)
        return eval_rmse(model, dataset)

    monkeypatch.setattr(dynamics, "eval_rmse", counting)
    cfg = DynamicsTrainConfig(hidden=(8,), epochs=1)
    caplog.set_level(logging.WARNING, logger="aeroalloc.dynamics")
    trainer(data, cfg)
    assert calls == []
    caplog.set_level(logging.INFO, logger="aeroalloc.dynamics")
    trainer(data, cfg)
    assert calls == [1]
    assert "validation wrench rmse" in caplog.text


def test_train_dynamics_deterministic(rng):
    data, _ = synthetic_affine_dataset(rng, n=200)
    cfg = DynamicsTrainConfig(seed=9, hidden=(8,), epochs=5)
    m1 = train_dynamics(data, cfg)
    m2 = train_dynamics(data, cfg)
    assert np.array_equal(model_flat_params(m1), model_flat_params(m2))
    m3 = train_dynamics(data, DynamicsTrainConfig(seed=10, hidden=(8,), epochs=5))
    assert not np.array_equal(model_flat_params(m1), model_flat_params(m3))


def test_mirror_penalty_shrinks_residual(rng):
    # asymmetric truth: the penalty must pull the flaperon columns together
    data, _ = synthetic_affine_dataset(rng, n=600)
    obs = data[0]
    base = DynamicsTrainConfig(seed=1, hidden=(16,), epochs=60, lr=3e-3)
    m_plain = train_dynamics(data, base)
    reg = DynamicsTrainConfig(
        seed=1, hidden=(16,), epochs=60, lr=3e-3,
        sym=SymmetryConfig(lambda_sym=5.0),
    )
    m_reg = train_dynamics(data, reg)
    assert symmetry_residual_norm(m_reg, obs) < symmetry_residual_norm(m_plain, obs)


def test_train_dynamics_input_validation(rng):
    cfg = DynamicsTrainConfig(epochs=1)
    with pytest.raises(ValueError):
        train_dynamics((np.zeros((5, 13)), np.zeros((5, 4)), np.zeros((5, 6))), cfg)
    bad = (np.full((50, 13), np.nan), np.zeros((50, 4)), np.zeros((50, 6)))
    with pytest.raises(ValueError):
        train_dynamics(bad, cfg)
    with pytest.raises(ValueError):
        train_dynamics((np.zeros((50, 12)), np.zeros((50, 4)), np.zeros((50, 6))), cfg)


def test_non_finite_data_error_names_the_first_bad_row():
    obs = np.zeros((200, 13))
    obs[[57, 120], 4] = [np.nan, np.inf]
    with pytest.raises(ValueError) as err:
        eval_rmse(small_model(0), (obs, np.zeros((200, 4)), np.zeros((200, 6))))
    message = str(err.value)
    assert message.startswith("observations must be finite; row 57 is [0.0, ")
    assert "\n" not in message and len(message) < 200


def test_train_dynamics_warns_on_constant_controls(rng):
    # either trainer: the Jacobian in u of the baseline is as unidentifiable as B
    obs = rng.normal(size=(60, 13))
    data = (obs, np.ones((60, 4)), rng.normal(size=(60, 6)))
    for trainer in (train_dynamics, train_unstructured):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trainer(data, DynamicsTrainConfig(epochs=1, hidden=(4,)))
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2, messages
        assert messages[0].startswith("only 60 samples") and "constant" in messages[1]
        assert {w.filename for w in caught} == {__file__}  # issued at the trainer's caller


def test_train_config_validation():
    with pytest.raises(ValueError):
        DynamicsTrainConfig(epochs=0)


def test_train_unstructured_fits_and_is_deterministic(rng):
    data, _ = synthetic_affine_dataset(rng, n=400)
    cfg = DynamicsTrainConfig(seed=2, hidden=(16,), epochs=40, lr=3e-3)
    history = []
    m1 = train_unstructured(data, cfg, history=history)
    assert history[-1] < history[0]
    scale = float(np.sqrt(np.mean(np.asarray(data[2]) ** 2)))
    assert eval_rmse(m1, data) < 0.5 * scale
    m2 = train_unstructured(data, cfg)
    assert np.array_equal(nncore.flat_params(m1.net), nncore.flat_params(m2.net))


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def test_eval_rmse_hand_value():
    model = unstructured_model(hidden=(4,), seed=0)
    for layer in model.net.layers:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    model.net.layers[-1].bias[...] = 1.0  # constant prediction of ones
    n = 10
    data = (np.zeros((n, 13)), np.zeros((n, 4)), np.zeros((n, 6)))
    assert eval_rmse(model, data) == pytest.approx(1.0)
    assert np.allclose(per_channel_rmse(model, data), np.ones(6))


def test_affine_at_exact_at_reference(rng):
    model = train_unstructured(
        synthetic_affine_dataset(rng, n=200)[0],
        DynamicsTrainConfig(seed=3, hidden=(8,), epochs=5),
    )
    obs = rng.normal(size=13)
    u_ref = rng.uniform(-10, 10, size=4)
    a, b = affine_at(model, obs, u_ref)
    direct = predict_wrench_batch(model, obs[None, :], u_ref[None, :])[0]
    assert np.allclose(a + b @ u_ref, direct, atol=1e-10)


def test_affine_at_matches_reference_backward_bit_for_bit(rng):
    model = train_unstructured(
        synthetic_affine_dataset(rng, n=200)[0],
        DynamicsTrainConfig(seed=5, hidden=(8, 8), epochs=5),
    )
    for _ in range(5):
        obs = rng.normal(size=13)
        u_ref = rng.uniform(-20, 20, size=4)
        a, b = affine_at(model, obs, u_ref)
        x = (np.concatenate([obs, u_ref]) - model.in_mean) / model.in_std
        tape = nncore.backward(model.net, np.eye(6),
                               nncore.forward(model.net, np.tile(x, (6, 1)), activations=True))
        assert np.array_equal(b, tape.input_grad[:, -4:] / model.in_std[-4:])
        assert np.array_equal(a, nncore.forward(model.net, x[None])[0] - b @ u_ref)


@pytest.mark.parametrize("shape", [(2, 13), (0, 13), (1, 1, 13), ()],
                         ids=["two_rows", "no_rows", "a_stack", "a_scalar"])
def test_affine_at_takes_one_observation_row_before_any_network_pass(monkeypatch, shape):
    model = unstructured_model(hidden=(8,), seed=0)
    passes = []
    monkeypatch.setattr(nncore, "_activations", lambda *args: passes.append(args))
    for u_ref in (np.zeros(4), np.zeros(5)):  # the observation is checked first
        with pytest.raises(ValueError, match="affine_at linearizes around a single observation"):
            affine_at(model, np.zeros(shape), u_ref)
    assert passes == []


def test_affine_at_reads_one_row_as_a_vector_or_a_one_row_matrix(rng):
    model = unstructured_model(hidden=(8, 8), seed=3)
    obs, u_ref = rng.normal(size=13), rng.uniform(-20, 20, size=4)
    a, b = affine_at(model, obs, u_ref)
    for row in (obs[None], obs.tolist()):
        a_row, b_row = affine_at(model, row, u_ref)
        assert a_row.tobytes() == a.tobytes() and b_row.tobytes() == b.tobytes()
    for width in (12, 14):  # an observation row holds exactly 13 entries
        row = np.resize(obs, width)
        for wrong in (row, row[None]):
            with pytest.raises(ValueError, match=rf"observation has shape \(1, {width}\), "
                                                 r"expected \(n, 13\)"):
                affine_at(model, wrong, u_ref)


@pytest.mark.parametrize("shape", [(3,), (5,), (1, 4)])
def test_affine_at_names_a_command_of_the_wrong_shape(shape):
    model = unstructured_model(hidden=(8,), seed=0)
    with pytest.raises(ValueError, match=rf"command u_ref must have shape \(4,\), got \({shape[0]},"):
        affine_at(model, np.zeros(13), np.zeros(shape))


def test_affine_at_jacobian_matches_finite_differences(rng):
    model = train_unstructured(
        synthetic_affine_dataset(rng, n=200)[0],
        DynamicsTrainConfig(seed=4, hidden=(8,), epochs=5),
    )
    obs = rng.normal(size=13)
    u_ref = rng.uniform(-5, 5, size=4)
    _, b = affine_at(model, obs, u_ref)
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1e-5
        plus = predict_wrench_batch(model, obs[None, :], (u_ref + e)[None, :])[0]
        minus = predict_wrench_batch(model, obs[None, :], (u_ref - e)[None, :])[0]
        assert np.allclose((plus - minus) / 2e-5, b[:, j], atol=1e-4)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_affine_model_json_roundtrip(tmp_path, rng):
    model = small_model(6, lambda_sym=0.2)
    path = tmp_path / "model.json"
    dynamics.save_dynamics_model(model, path)
    loaded = dynamics.load_dynamics_model(path)
    assert isinstance(loaded, AffineModel)
    obs = rng.normal(size=(3, 13))
    a0, b0 = predict_batch(model, obs)
    a1, b1 = predict_batch(loaded, obs)
    assert np.array_equal(a0, a1) and np.array_equal(b0, b1)
    assert loaded.sym.lambda_sym == model.sym.lambda_sym


def test_affine_model_json_without_signs_and_with_them():
    model = small_model(6, lambda_sym=0.2)
    doc = dynamics.dynamics_model_to_dict(model)
    assert doc["sym"] == {"lambda": 0.2, "delta": [0.5] * 6}
    # files that still carry the signs load, and the signs are not read
    doc["sym"]["signs"] = [1.0] * 6
    loaded = dynamics.dynamics_model_from_dict(doc)
    assert loaded.sym == model.sym


def test_unstructured_model_json_roundtrip(tmp_path, rng):
    model = unstructured_model(hidden=(6,), seed=8)
    path = tmp_path / "model.json"
    dynamics.save_dynamics_model(model, path)
    loaded = dynamics.load_dynamics_model(path)
    assert isinstance(loaded, UnstructuredModel)
    obs = rng.normal(size=(3, 13))
    u = rng.uniform(-5, 5, size=(3, 4))
    assert np.array_equal(
        predict_wrench_batch(model, obs, u), predict_wrench_batch(loaded, obs, u)
    )


def test_model_dict_rejects_bad_format():
    doc = dynamics.dynamics_model_to_dict(small_model(0))
    doc["format"] = "dynmodel-v0"
    with pytest.raises(ValueError):
        dynamics.dynamics_model_from_dict(doc)
    doc["format"] = dynamics.MODEL_FORMAT_VERSION
    doc["kind"] = "mystery"
    with pytest.raises(ValueError):
        dynamics.dynamics_model_from_dict(doc)


def test_dynamics_csv_roundtrip(tmp_path, rng):
    data = random_batch(rng, n=12)
    path = tmp_path / "data.csv"
    dynamics.save_dynamics_csv(path, data)
    loaded = dynamics.load_dynamics_csv(path)
    for a, b in zip(data, loaded):
        assert np.array_equal(a, b)
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        dynamics.load_dynamics_csv(path)


def test_flat_params_roundtrip_and_size_check(rng):
    model = small_model(11)
    theta = model_flat_params(model)
    perturbed = theta + rng.normal(size=theta.size)
    set_model_flat_params(model, perturbed)
    assert np.array_equal(model_flat_params(model), perturbed)
    with pytest.raises(ValueError):
        set_model_flat_params(model, perturbed[:-1])
