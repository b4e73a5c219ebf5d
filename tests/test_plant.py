"""Synthetic plant: geometry symmetries, gust advection, exact affinity, datasets."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeroalloc import plant, probe as probe_mod
from aeroalloc.dynamics import load_dynamics_csv
from aeroalloc.plant import (
    ENVELOPE_DEG,
    GustState,
    OutOfEnvelopeError,
    PlantParams,
    TunnelCondition,
    band_limited_walk,
    dynamic_pressure,
    generate_dataset,
    gust_from_spec,
    gust_perturbation,
    local_flow,
    make_observation,
    probe_pressures,
    stage_schedule,
    true_affine_terms,
    true_wrench,
    wing_pressures,
)
from aeroalloc.probe import FlowState

from conftest import count_gust_calls

SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

angles = st.floats(-12.0, 12.0)


@pytest.fixture
def params():
    return PlantParams()


# ---------------------------------------------------------------------------
# control matrix and baseline
# ---------------------------------------------------------------------------


def test_control_matrix_mirror_exact(params):
    d = params.control_matrix()
    assert d.shape == (6, 4)
    assert np.array_equal(d[:, 0] + SIGNS * d[:, 1], np.zeros(6))


def test_equal_flaperon_commands_cancel_lift_drag_pitch(params):
    d = params.control_matrix()
    u = np.array([4.0, 4.0, 0.0, 0.0])
    y = d @ u
    assert y[0] == 0.0 and y[2] == 0.0 and y[4] == 0.0
    assert y[3] == pytest.approx(2 * 4.0 * params.flap_croll * params.span)


def test_dynamic_pressure_known_value(params):
    assert dynamic_pressure(10.0, params) == pytest.approx(61.25)


def test_baseline_coefficients_known_values(params):
    c = params.baseline_coefficients(0.0, 0.0)
    assert c[0] == -params.cd0
    assert c[2] == params.cl0
    assert c[1] == 0.0 and c[3] == 0.0 and c[5] == 0.0
    c5 = params.baseline_coefficients(5.0, 0.0)
    assert c5[2] == pytest.approx(params.cl0 + 5.0 * params.cl_alpha)


# ---------------------------------------------------------------------------
# probe taps
# ---------------------------------------------------------------------------


def test_probe_taps_on_axis_known_values(params):
    p = probe_pressures(FlowState(10.0, 0.0, 0.0), params)
    q = 61.25
    assert p.p[0] == pytest.approx(q)
    assert np.allclose(p.p[1:], 0.0, atol=1e-9)
    out = probe_mod.normalize(p)
    assert out.delta_p == pytest.approx(q)
    # correction factor is exactly one on-axis for this probe law
    cd = probe_mod.dynamic_pressure_correction(10.0, out.delta_p, params.rho)
    assert cd == pytest.approx(1.0)


@given(alpha=angles, beta=angles)
@settings(max_examples=50, deadline=None)
def test_probe_tap_parities(alpha, beta):
    params = PlantParams()
    base = probe_pressures(FlowState(10.0, alpha, beta), params).p
    flip_b = probe_pressures(FlowState(10.0, alpha, -beta), params).p
    flip_a = probe_pressures(FlowState(10.0, -alpha, beta), params).p
    # up/down pair is even in beta, left/right pair even in alpha
    assert np.allclose(base[[0, 1, 2]], flip_b[[0, 1, 2]], atol=1e-12)
    assert np.allclose(base[[0, 3, 4]], flip_a[[0, 3, 4]], atol=1e-12)
    # mirroring an angle swaps the corresponding opposed pair
    assert np.allclose(base[[3, 4]], flip_b[[4, 3]], atol=1e-12)
    assert np.allclose(base[[1, 2]], flip_a[[2, 1]], atol=1e-12)


def test_positive_alpha_loads_down_tap(params):
    p = probe_pressures(FlowState(10.0, 8.0, 0.0), params).p
    assert p[2] > p[1]  # flow from below hits the down-looking tap


def test_probe_noise_is_seed_deterministic(params):
    flow = FlowState(10.0, 3.0, -2.0)
    a = probe_pressures(flow, params, np.random.default_rng(5)).p
    b = probe_pressures(flow, params, np.random.default_rng(5)).p
    assert np.array_equal(a, b)
    assert not np.array_equal(a, probe_pressures(flow, params).p)


# ---------------------------------------------------------------------------
# gusts
# ---------------------------------------------------------------------------


def test_gust_perturbation_modes(params):
    assert gust_perturbation(GustState(), 0.0, "wing", 10.0, params) == (0.0, 0.0)
    da, db = gust_perturbation(
        GustState(mode="shear", yaw_deg=4.0), 1.0, "wing", 10.0, params
    )
    assert da == 0.0
    assert db == pytest.approx(params.gust_weight["wing"] * params.shear_beta_per_yaw * 4.0)
    assert gust_perturbation(
        GustState(mode="shedding", amplitude=0.0), 0.0, "wing", 10.0, params
    ) == (0.0, 0.0)
    with pytest.raises(ValueError):
        gust_perturbation(GustState(), 0.0, "tail", 10.0, params)


def test_shedding_advects_downstream(params):
    # the wing sees the probe0 signal later by offset/va, scaled by its weight
    gust = GustState(mode="shedding", amplitude=0.5, frequency_hz=6.0)
    va = 10.0
    lag = params.streamwise_offset_m["wing"] / va
    w_probe = params.gust_weight["probe0"]
    w_wing = params.gust_weight["wing"]
    for t in (0.0, 0.13, 0.4):
        da_p, db_p = gust_perturbation(gust, t, "probe0", va, params)
        da_w, db_w = gust_perturbation(gust, t + lag, "wing", va, params)
        assert da_w / w_wing == pytest.approx(da_p / w_probe)
        assert db_w / w_wing == pytest.approx(db_p / w_probe)


def test_gust_state_validation():
    with pytest.raises(ValueError):
        GustState(mode="tornado")
    with pytest.raises(ValueError):
        GustState(amplitude=-0.1)
    with pytest.raises(ValueError):
        GustState(mode="shedding", frequency_hz=0.0)


@pytest.mark.parametrize("field,bad", [
    ("amplitude", np.nan), ("amplitude", np.inf), ("yaw_deg", np.nan), ("yaw_deg", -np.inf),
    ("phase", np.nan),
])
def test_gust_state_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match="finite"):
        GustState(mode="shear", **{field: bad})
    with pytest.raises(ValueError, match="finite"):
        GustState(mode="shedding", frequency_hz=bad)


@pytest.mark.parametrize("args", [
    (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (-1.0, 0.0, 0.0), (10.0, np.inf, 0.0),
    (10.0, 0.0, np.nan), (10.0, 0.0, 0.0, GustState(), np.nan),
])
def test_tunnel_condition_rejects_non_finite_or_negative(args):
    with pytest.raises(ValueError, match="finite"):
        TunnelCondition(*args)


def test_gust_from_spec(params):
    assert gust_from_spec(None, 10.0, params).mode == "off"
    assert gust_from_spec({"mode": "off"}, 10.0, params).mode == "off"
    g = gust_from_spec({"mode": "shedding", "amplitude": 0.4}, 10.0, params)
    assert g.frequency_hz == pytest.approx(0.2 * 10.0 / params.chord)
    g2 = gust_from_spec(
        {"mode": "shedding", "amplitude": 0.4, "frequency_hz": 3.0}, 10.0, params
    )
    assert g2.frequency_hz == 3.0
    g3 = gust_from_spec({"mode": "shear", "yaw_deg": 2.0}, 10.0, params)
    assert g3.yaw_deg == 2.0


def test_local_flow_applies_perturbation(params):
    cond = TunnelCondition(10.0, 2.0, 1.0, gust=GustState(mode="shear", yaw_deg=3.0))
    flow = local_flow(cond, "wing", params)
    assert flow.alpha_deg == 2.0
    assert flow.beta_deg == pytest.approx(1.0 + 0.7 * 0.3 * 3.0)


# ---------------------------------------------------------------------------
# wrench truth
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(0, 2**31),
    alpha=st.floats(-10.0, 10.0),
    beta=st.floats(-10.0, 10.0),
)
@settings(max_examples=40, deadline=None)
def test_true_wrench_exactly_affine_in_control(seed, alpha, beta):
    params = PlantParams()
    cond = TunnelCondition(11.0, alpha, beta)
    rng = np.random.default_rng(seed)
    u1, u2 = rng.uniform(-12.0, 12.0, size=(2, 4))
    y0 = true_wrench(cond, np.zeros(4), params)
    y1 = true_wrench(cond, u1, params)
    y2 = true_wrench(cond, u2, params)
    y12 = true_wrench(cond, 0.5 * (u1 + u2), params)
    assert np.allclose(y12 - y0, 0.5 * ((y1 - y0) + (y2 - y0)), atol=1e-9)


def test_true_wrench_matches_affine_terms(params, rng):
    cond = TunnelCondition(9.0, 4.0, -3.0, gust=GustState(mode="shear", yaw_deg=2.0))
    a, b = true_affine_terms(cond, params)
    q_s = dynamic_pressure(9.0, params) * params.wing_area
    assert np.allclose(b, q_s * params.control_matrix())
    for _ in range(5):
        u = rng.uniform(-10, 10, size=4)
        y = true_wrench(cond, u, params)
        assert np.allclose(y, a + b @ u, atol=1e-12)


def test_true_wrench_envelope_guard(params):
    with pytest.raises(OutOfEnvelopeError):
        true_wrench(TunnelCondition(10.0, ENVELOPE_DEG + 1.0, 0.0), np.zeros(4), params)
    with pytest.raises(OutOfEnvelopeError):
        true_wrench(TunnelCondition(10.0, 0.0, -ENVELOPE_DEG - 0.5), np.zeros(4), params)


def test_true_wrench_noise_determinism(params):
    cond = TunnelCondition(10.0, 1.0, 0.0)
    y1 = true_wrench(cond, np.zeros(4), params, np.random.default_rng(3))
    y2 = true_wrench(cond, np.zeros(4), params, np.random.default_rng(3))
    assert np.array_equal(y1, y2)


# ---------------------------------------------------------------------------
# wing taps and observations
# ---------------------------------------------------------------------------


def test_wing_taps_couple_to_right_flaperon_only(params):
    cond = TunnelCondition(10.0, 2.0, 0.0)
    base = wing_pressures(cond, np.zeros(4), params)
    left = wing_pressures(cond, np.array([10.0, 0.0, 0.0, 0.0]), params)
    right = wing_pressures(cond, np.array([0.0, 10.0, 0.0, 0.0]), params)
    assert np.array_equal(base, left)
    q = dynamic_pressure(10.0, params)
    assert np.allclose(right - base, q * 10.0 * np.asarray(params.wing_tap_c))


def test_wing_taps_see_gust(params):
    quiet = TunnelCondition(10.0, 0.0, 0.0)
    gusty = TunnelCondition(
        10.0, 0.0, 0.0, gust=GustState(mode="shedding", amplitude=0.6, frequency_hz=5.0),
        time=0.02,
    )
    assert not np.array_equal(
        wing_pressures(quiet, np.zeros(4), params), wing_pressures(gusty, np.zeros(4), params)
    )


def test_ideal_observation_reports_true_flow(params):
    cond = TunnelCondition(10.0, 3.0, -2.0)
    obs = make_observation(cond, np.zeros(4), params)
    assert np.allclose(obs[:6], [10.0, 3.0, -2.0, 10.0, 3.0, -2.0])
    assert np.allclose(obs[6:], wing_pressures(cond, np.zeros(4), params))


@pytest.mark.parametrize("noisy", [False, True])
def test_plant_step_returns_float_arrays(params, noisy):
    rng = np.random.default_rng(0) if noisy else None
    cond = TunnelCondition(10.0, 1.0, -1.0)
    u = np.array([1.0, -2.0, 3.0, 0.5])
    obs = make_observation(cond, u, params, rng)
    y = true_wrench(cond, u, params, rng)
    assert isinstance(obs, np.ndarray) and obs.dtype == float and obs.shape == (13,)
    assert isinstance(y, np.ndarray) and y.dtype == float and y.shape == (6,)


def test_observation_probe_features_independent_of_controls(params):
    # deflections act on the wing taps, never on the probe flow estimates
    cond = TunnelCondition(10.0, 1.0, 1.0)
    a = make_observation(cond, np.zeros(4), params)
    b = make_observation(cond, np.array([5.0, -5.0, 3.0, 0.0]), params)
    assert np.array_equal(a[:6], b[:6])
    assert not np.array_equal(a[6:], b[6:])


# ---------------------------------------------------------------------------
# schedules and datasets
# ---------------------------------------------------------------------------


def test_band_limited_walk_shape_limits_determinism():
    w1 = band_limited_walk(np.random.default_rng(2), 500, limit=5.0)
    w2 = band_limited_walk(np.random.default_rng(2), 500, limit=5.0)
    assert w1.shape == (500, 4)
    assert np.max(np.abs(w1)) <= 5.0
    assert np.array_equal(w1, w2)


def test_stage_schedule_sweep(params):
    rng = np.random.default_rng(0)
    proto = {"stage": "I", "duration_s": 10.0, "dt": 0.02, "alpha_range": [-8, 8]}
    t, alpha, beta = stage_schedule(proto, params, rng)
    assert t.size == alpha.size == beta.size == 500
    assert t[1] - t[0] == pytest.approx(0.02)
    assert np.max(np.abs(alpha)) <= 8.0
    assert np.max(np.abs(beta)) <= 10.0
    assert np.std(alpha) > 0.5  # actually sweeps


def test_stage_schedule_holds(params):
    proto = {"stage": "II", "setpoints": [[2.0, -1.0], [-3.0, 4.0]], "hold_s": 1.0, "dt": 0.1}
    t, alpha, beta = stage_schedule(proto, params, np.random.default_rng(0))
    assert alpha.size == 20
    assert np.array_equal(alpha[:10], np.full(10, 2.0))
    assert np.array_equal(beta[10:], np.full(10, 4.0))
    with pytest.raises(ValueError):
        stage_schedule({"stage": "III"}, params, np.random.default_rng(0))


def test_generate_calibration_dataset(tmp_path, params):
    proto = {
        "kind": "calibration", "speeds": [8.0, 10.0], "alphas": [0.0, 5.0],
        "betas": [0.0], "repeats": 3, "name": "cal",
        "exclude_points": [[8.0, 5.0, 0.0]],
    }
    paths = generate_dataset(proto, params, seed=7, out_dir=tmp_path)
    assert [p.name for p in paths] == ["cal_probe0.csv", "cal_probe1.csv"]
    rows = probe_mod.load_calibration_csv(paths[0])
    assert len(rows) == (2 * 2 - 1) * 3
    assert all(f.va in (8.0, 10.0) for _, f in rows)


def test_generate_dynamics_dataset(tmp_path, params):
    proto = {
        "kind": "dynamics", "speed": 10.0, "stage": "I", "duration_s": 2.0,
        "dt": 0.02, "gust": {"mode": "shedding", "amplitude": 0.4}, "name": "run",
    }
    paths = generate_dataset(proto, params, seed=3, out_dir=tmp_path)
    assert [p.name for p in paths] == ["run.csv", "run_conditions.csv"]
    obs, u, y = load_dynamics_csv(paths[0])
    assert obs.shape == (100, 13) and u.shape == (100, 4) and y.shape == (100, 6)
    assert np.max(np.abs(u)) <= 25.0
    header = paths[1].read_text().splitlines()[0].split(",")
    assert header == plant.CONDITIONS_CSV_HEADER


def test_dynamics_run_evaluates_the_wing_gust_once_per_step(tmp_path, params, monkeypatch):
    proto = {
        "kind": "dynamics", "speed": 10.0, "stage": "I", "duration_s": 2.0,
        "gust": {"mode": "shedding", "amplitude": 0.4}, "name": "count",
    }
    reference = generate_dataset(proto, params, seed=3, out_dir=tmp_path / "a")
    calls = count_gust_calls(monkeypatch)
    paths = generate_dataset(proto, params, seed=3, out_dir=tmp_path / "b")
    # 100 steps: one evaluation per probe and one at the wing
    assert calls.count(("shedding", "wing")) == 100
    assert len(calls) == 300
    for pa, pb in zip(reference, paths):
        assert pa.read_bytes() == pb.read_bytes()


def test_plant_step_takes_the_wing_gust_it_was_given(params, rng):
    gust = GustState(mode="shedding", amplitude=0.4, frequency_hz=8.0)
    cond = TunnelCondition(10.0, 3.0, -2.0, gust=gust, time=0.37)
    u = rng.uniform(-20.0, 20.0, size=4)
    given = plant.wing_gust_angles(cond, params)
    assert np.array_equal(true_wrench(cond, u, params, wing_gust=given),
                          true_wrench(cond, u, params))
    assert np.array_equal(make_observation(cond, u, params, wing_gust=given),
                          make_observation(cond, u, params))
    zero = make_observation(cond, u, params, wing_gust=(0.0, 0.0))
    assert np.array_equal(zero[6:], wing_pressures(
        TunnelCondition(10.0, 3.0, -2.0), u, params))


def test_dataset_generation_is_byte_deterministic(tmp_path, params):
    proto = {
        "kind": "dynamics", "speed": 10.0, "stage": "I", "duration_s": 1.0,
        "gust": {"mode": "shedding", "amplitude": 0.4}, "name": "rep",
    }
    out_a = generate_dataset(proto, params, seed=11, out_dir=tmp_path / "a")
    out_b = generate_dataset(proto, params, seed=11, out_dir=tmp_path / "b")
    for pa, pb in zip(out_a, out_b):
        assert pa.read_bytes() == pb.read_bytes()
    out_c = generate_dataset(proto, params, seed=12, out_dir=tmp_path / "c")
    assert out_a[0].read_bytes() != out_c[0].read_bytes()


def test_generate_dataset_dispatch(tmp_path, params):
    with pytest.raises(ValueError):
        generate_dataset({"kind": "mystery"}, params, 0, tmp_path)
    proto_path = tmp_path / "proto.json"
    proto_path.write_text(
        '{"kind": "dynamics", "speed": 9.0, "duration_s": 1.0, "name": "fromjson"}'
    )
    paths = generate_dataset(proto_path, params, 0, tmp_path)
    assert paths[0].name == "fromjson.csv"


def test_plant_params_validation():
    with pytest.raises(ValueError):
        PlantParams(rho=0.0)
    with pytest.raises(ValueError):
        PlantParams(wing_tap_a=(1.0, 2.0))
    with pytest.raises(ValueError):
        TunnelCondition(-1.0, 0.0, 0.0)


def test_plant_params_from_json(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"rho": 1.1, "wing_noise_pa": 2.5}')
    params = plant.plant_params_from_json(path)
    assert params.rho == 1.1
    assert params.wing_noise_pa == 2.5
    assert params.wing_area == 0.30
