"""Synthetic plant: geometry symmetries, gust advection, exact affinity, datasets."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aeroalloc import nncore, plant, probe as probe_mod
from aeroalloc.dynamics import load_dynamics_csv, save_dynamics_csv, symmetry_residual_matrix
from aeroalloc.plant import (
    ENVELOPE_DEG,
    GustState,
    OutOfEnvelopeError,
    PlantParams,
    band_limited_walk,
    dynamic_pressure,
    generate_dataset,
    gust_field,
    gust_from_spec,
    make_observation,
    probe_pressures,
    run_terms,
    stage_schedule,
    true_affine_terms,
    true_wrench,
)
from aeroalloc.probe import FlowState
from aeroalloc.table import write_table

from conftest import (
    Condition,
    count_gust_calls,
    gust_at,
    reference_calibration_rows,
    reference_observation,
    reference_probe_taps,
    reference_wrench,
)

SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

angles = st.floats(-12.0, 12.0)


@pytest.fixture
def params():
    return PlantParams()


def one_step(params, va, alpha, beta, gust=GustState(), time=0.0, rng=None, probe_models=None):
    """The run terms of a one-step run at a single condition."""
    return run_terms(params, va, [time], [alpha], [beta], gust, rng, probe_models)


def tiny_calibration_nets():
    """Two untrained 5-4-3 nets with a constant, positive dynamic-pressure correction."""
    nets = [nncore.init_network([5, 4, 3], seed=i) for i in (1, 2)]
    for net in nets:
        net.layers[-1].weight[0] = 0.0
        net.layers[-1].bias[0] = 1.0
    return nets


# ---------------------------------------------------------------------------
# control matrix and baseline
# ---------------------------------------------------------------------------


def test_control_matrix_mirror_exact(params):
    d = params.control_matrix()
    assert d.shape == (6, 4)
    assert np.array_equal(d[:, 0] + SIGNS * d[:, 1], np.zeros(6))


def hand_written_control(p):
    """The control matrix with each flaperon sign placed by hand, as the plant once wrote it."""
    b, c = p.span, p.chord
    return np.array([
        [-p.flap_cfx, p.flap_cfx, -p.elev_cfx, -p.rud_cfx],
        [p.flap_cfy, p.flap_cfy, 0.0, p.rud_cfy],
        [p.flap_cfz, -p.flap_cfz, p.elev_cfz, 0.0],
        [p.flap_croll * b, p.flap_croll * b, 0.0, p.rud_croll * b],
        [-p.flap_cm * c, p.flap_cm * c, p.elev_cm * c, 0.0],
        [p.flap_cn * b, p.flap_cn * b, 0.0, p.rud_cn * b],
    ])


# a flaperon coefficient: a zero of either sign, or any finite value
coefficient = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0), st.floats(-1e6, 1e6))


@given(coeffs=st.fixed_dictionaries({
    **{name: coefficient for name in
       ("flap_cfx", "flap_cfy", "flap_cfz", "flap_croll", "flap_cm", "flap_cn")},
    "span": st.floats(0.1, 10.0), "chord": st.floats(0.01, 2.0),
}))
@example(coeffs={})  # the default plant
@settings(max_examples=200, deadline=None)
def test_derived_mirror_column_keeps_the_hand_written_bits(coeffs):
    # the right flaperon column is -MIRROR_SIGNS * left: a product with +-1 is
    # exact, so every entry, zeros and their signs included, is the hand-placed one
    p = PlantParams(**coeffs)
    d = p.control_matrix()
    assert d.dtype == np.float64 and d.flags.c_contiguous
    assert d.tobytes() == hand_written_control(p).tobytes()
    assert np.array_equal(symmetry_residual_matrix(d), np.zeros(6))


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
    _, delta_p = probe_mod.normalize(p)
    assert delta_p == pytest.approx(q)
    # correction factor is exactly one on-axis for this probe law
    cd = probe_mod.dynamic_pressure_correction(10.0, delta_p, params.rho)
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


def test_probe_noise_is_seed_deterministic(tmp_path, params):
    proto = {"kind": "calibration", "speeds": [8.0, 10.0], "alphas": [3.0], "betas": [-2.0],
             "repeats": 2}
    a, b = (generate_dataset(proto, params, 5, tmp_path / d) for d in "ab")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    quiet = generate_dataset(proto, PlantParams(probe_noise_pa=0.0), 5, tmp_path / "quiet")
    for noisy, path in zip(a, quiet):
        assert noisy.read_bytes() != path.read_bytes()
        for taps, flow in probe_mod.load_calibration_csv(path):
            assert np.array_equal(taps.p, probe_pressures(flow, params).p)


# ---------------------------------------------------------------------------
# gusts
# ---------------------------------------------------------------------------


def test_gust_perturbation_modes(params):
    # gust_field's (d_alpha, d_beta) at each location, in each mode
    times = np.array([0.0, 1.0])
    for quiet in (GustState(), GustState(mode="shedding", amplitude=0.0)):
        field = gust_field(quiet, times, 10.0, params)
        assert field.shape == (2, 3, 2)
        assert field.tobytes() == np.zeros((2, 3, 2)).tobytes()  # +0.0, not -0.0
    field = gust_field(GustState(mode="shear", yaw_deg=4.0), times, 10.0, params)
    assert field[:, :, 0].tobytes() == np.zeros((2, 3)).tobytes()
    for i, loc in enumerate(plant.LOCATIONS):
        expected = params.gust_weight[loc] * params.shear_beta_per_yaw * 4.0
        assert field[:, i, 1].tolist() == [expected] * 2


ARRAY_GUSTS = [
    GustState(),
    GustState(mode="shear", yaw_deg=4.0),
    GustState(mode="shedding", amplitude=0.4, frequency_hz=10.8, phase=0.3),  # 13.5 m/s rule
    GustState(mode="shedding", amplitude=0.0),
]


@pytest.mark.parametrize("location", plant.LOCATIONS)
@pytest.mark.parametrize("gust", ARRAY_GUSTS, ids=lambda g: f"{g.mode}-{g.amplitude:g}")
def test_gust_perturbation_over_times_equals_scalar_calls(params, gust, location):
    # each location's column of gust_field over many times, against one-time calls
    times = np.concatenate([np.arange(6000) * 0.02, [0.013, 7.77, 123.456]])
    field = gust_field(gust, times, 13.5, params)
    assert field.shape == (times.size, 3, 2)
    d_alpha, d_beta = field[:, plant.LOCATIONS.index(location)].T
    scalar = [gust_at(gust, t, location, 13.5, params) for t in times.tolist()]
    # each element equals the call at its one time bit for bit, signed zeros included
    assert d_alpha.tobytes() == np.array([a for a, _ in scalar]).tobytes()
    assert d_beta.tobytes() == np.array([b for _, b in scalar]).tobytes()


def test_shedding_advects_downstream(params):
    # the wing sees the probe0 signal later by offset/va, scaled by its weight
    gust = GustState(mode="shedding", amplitude=0.5, frequency_hz=6.0)
    va = 10.0
    lag = params.streamwise_offset_m["wing"] / va
    w_probe = params.gust_weight["probe0"]
    w_wing = params.gust_weight["wing"]
    for t in (0.0, 0.13, 0.4):
        da_p, db_p = gust_at(gust, t, "probe0", va, params)
        da_w, db_w = gust_at(gust, t + lag, "wing", va, params)
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
def test_tunnel_condition_rejects_non_finite_or_negative(params, args):
    # (va, alpha, beta[, gust, time]) of a one-step run
    with pytest.raises(ValueError, match="finite"):
        one_step(params, *args)


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
    # a shedding frequency derived from a still tunnel names the airspeed
    with pytest.raises(ValueError, match="^a shedding gust takes its frequency from the "
                                         "airspeed, which must be positive, got 0 m/s$"):
        gust_from_spec({"mode": "shedding", "amplitude": 0.4}, 0.0, params)
    assert gust_from_spec({"mode": "shedding", "frequency_hz": 3.0}, 0.0, params).mode == "shedding"
    assert gust_from_spec({"mode": "off"}, 0.0, params).mode == "off"


def test_run_terms_apply_the_wing_gust(params):
    terms = one_step(params, 10.0, 2.0, 1.0, GustState(mode="shear", yaw_deg=3.0))
    d_beta = 0.7 * 0.3 * 3.0
    assert terms.gusts[0, 2, 0] == 0.0
    assert terms.gusts[0, 2, 1] == pytest.approx(d_beta)
    assert np.allclose(terms.c0[0], params.baseline_coefficients(2.0, 1.0 + d_beta))


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
    terms = one_step(params, 11.0, alpha, beta)
    rng = np.random.default_rng(seed)
    u1, u2 = rng.uniform(-12.0, 12.0, size=(2, 4))
    y0 = true_wrench(terms, 0, np.zeros(4))
    y1 = true_wrench(terms, 0, u1)
    y2 = true_wrench(terms, 0, u2)
    y12 = true_wrench(terms, 0, 0.5 * (u1 + u2))
    assert np.allclose(y12 - y0, 0.5 * ((y1 - y0) + (y2 - y0)), atol=1e-9)


def test_true_wrench_matches_affine_terms(params, rng):
    gust = GustState(mode="shear", yaw_deg=2.0)
    terms = one_step(params, 9.0, 4.0, -3.0, gust)
    d_alpha, d_beta = gust_at(gust, 0.0, "wing", 9.0, params)
    a, b = true_affine_terms(9.0, 4.0 + d_alpha, -3.0 + d_beta, params)
    q_s = dynamic_pressure(9.0, params) * params.wing_area
    assert np.allclose(b, q_s * params.control_matrix())
    for _ in range(5):
        u = rng.uniform(-10, 10, size=4)
        y = true_wrench(terms, 0, u)
        assert np.allclose(y, a + b @ u, atol=1e-12)


def test_true_affine_terms_rows_match_single_angles(params, rng):
    # one call over a schedule gives the per-pair terms bit for bit
    alpha, beta = rng.uniform(-10.0, 10.0, size=(2, 50))
    a_rows, b = true_affine_terms(12.5, alpha, beta, params)
    assert a_rows.shape == (50, 6)
    for k in range(50):
        a_k, b_k = true_affine_terms(12.5, float(alpha[k]), float(beta[k]), params)
        assert np.array_equal(a_rows[k], a_k)
        assert np.array_equal(b, b_k)


def test_true_wrench_envelope_guard(params):
    # the whole schedule is checked once, before any step, naming the first step outside
    t = np.arange(5) * 0.02
    alpha = np.array([0.0, 14.0, ENVELOPE_DEG + 1.0, 30.0, 0.0])
    with pytest.raises(OutOfEnvelopeError, match=r"^alpha=16\.0, beta=0\.0 deg at t=0\.04 s "
                                                 r"outside the \+-15 deg envelope$"):
        run_terms(params, 10.0, t, alpha, np.zeros(5))
    with pytest.raises(OutOfEnvelopeError, match=r"beta=-15\.5 deg at t=0 s"):
        one_step(params, 10.0, 0.0, -ENVELOPE_DEG - 0.5)
    run_terms(params, 10.0, t, np.clip(alpha, -ENVELOPE_DEG, ENVELOPE_DEG), np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_run_terms_reject_a_non_finite_schedule(params, bad, column):
    schedule = [np.arange(3) * 0.02, np.zeros(3), np.zeros(3)]
    schedule[column][1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        run_terms(params, 10.0, *schedule)
    with pytest.raises(ValueError, match="airspeed must be finite"):
        run_terms(params, bad, np.zeros(1), np.zeros(1), np.zeros(1))


def test_true_wrench_noise_determinism(params):
    y1 = true_wrench(one_step(params, 10.0, 1.0, 0.0, rng=np.random.default_rng(3)), 0,
                     np.zeros(4))
    y2 = true_wrench(one_step(params, 10.0, 1.0, 0.0, rng=np.random.default_rng(3)), 0,
                     np.zeros(4))
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, true_wrench(one_step(params, 10.0, 1.0, 0.0), 0, np.zeros(4)))


@pytest.mark.parametrize("calibrated", [False, True])
def test_noise_table_equals_per_step_draws(params, calibrated):
    # one (n, k) draw scaled per column gives the per-step rng.normal draws bit for bit
    scales = plant._noise_scales(params, calibrated)
    n, k = 500, scales.size
    assert k == (23 if calibrated else 19)
    noise = np.random.default_rng(8).standard_normal((n, k))
    noise *= scales
    noise += 0.0
    rng = np.random.default_rng(8)
    per_step = []
    for _ in range(n):
        if calibrated:
            row = [*rng.normal(0.0, params.probe_noise_pa, size=5),
                   *rng.normal(0.0, params.probe_noise_pa, size=5)]
        else:
            row = [rng.normal(0.0, s) for s in (params.est_noise_va, params.est_noise_angle_deg,
                                                 params.est_noise_angle_deg) * 2]
        row += [*rng.normal(0.0, params.wing_noise_pa, size=7),
                *rng.normal(0.0, params.force_noise_n, size=3),
                *rng.normal(0.0, params.torque_noise_nm, size=3)]
        per_step.append(row)
    assert noise.tobytes() == np.array(per_step).tobytes()


# ---------------------------------------------------------------------------
# wing taps and observations
# ---------------------------------------------------------------------------


def test_wing_taps_couple_to_right_flaperon_only(params):
    terms = one_step(params, 10.0, 2.0, 0.0)
    base = make_observation(terms, 0, np.zeros(4))[6:]
    left = make_observation(terms, 0, np.array([10.0, 0.0, 0.0, 0.0]))[6:]
    right = make_observation(terms, 0, np.array([0.0, 10.0, 0.0, 0.0]))[6:]
    assert np.array_equal(base, left)
    q = dynamic_pressure(10.0, params)
    assert np.allclose(right - base, q * 10.0 * np.asarray(params.wing_tap_c))


def test_wing_taps_see_gust(params):
    quiet = one_step(params, 10.0, 0.0, 0.0)
    gusty = one_step(params, 10.0, 0.0, 0.0,
                     GustState(mode="shedding", amplitude=0.6, frequency_hz=5.0), time=0.02)
    assert not np.array_equal(make_observation(quiet, 0, np.zeros(4))[6:],
                              make_observation(gusty, 0, np.zeros(4))[6:])


def test_ideal_observation_reports_true_flow(params):
    obs = make_observation(one_step(params, 10.0, 3.0, -2.0), 0, np.zeros(4))
    assert np.allclose(obs[:6], [10.0, 3.0, -2.0, 10.0, 3.0, -2.0])
    cond = Condition(10.0, 3.0, -2.0)
    assert obs.tobytes() == reference_observation(params, cond, np.zeros(4)).tobytes()


def test_ideal_probe_airspeed_is_clamped_at_zero(params):
    # in a still tunnel half the noisy airspeed readings would fall below zero
    t = np.arange(40) * 0.02
    terms = run_terms(params, 0.0, t, np.zeros(40), np.zeros(40), rng=np.random.default_rng(2))
    rng = np.random.default_rng(2)
    u = np.zeros(4)
    for k, tk in enumerate(t.tolist()):
        obs = make_observation(terms, k, u)
        assert obs.tobytes() == reference_observation(
            params, Condition(0.0, 0.0, 0.0, time=tk), u, rng).tobytes()
        reference_wrench(params, Condition(0.0, 0.0, 0.0, time=tk), u, rng)
    assert terms.features[:, [0, 3]].min() == 0.0


@pytest.mark.parametrize("noisy", [False, True])
def test_plant_step_returns_float_arrays(params, noisy):
    rng = np.random.default_rng(0) if noisy else None
    terms = one_step(params, 10.0, 1.0, -1.0, rng=rng)
    u = np.array([1.0, -2.0, 3.0, 0.5])
    obs = make_observation(terms, 0, u)
    y = true_wrench(terms, 0, u)
    assert isinstance(obs, np.ndarray) and obs.dtype == float and obs.shape == (13,)
    assert isinstance(y, np.ndarray) and y.dtype == float and y.shape == (6,)


def test_observation_probe_features_independent_of_controls(params):
    # deflections act on the wing taps, never on the probe flow estimates
    terms = one_step(params, 10.0, 1.0, 1.0)
    a = make_observation(terms, 0, np.zeros(4))
    b = make_observation(terms, 0, np.array([5.0, -5.0, 3.0, 0.0]))
    assert np.array_equal(a[:6], b[:6])
    assert not np.array_equal(a[6:], b[6:])


# ---------------------------------------------------------------------------
# schedules and datasets
# ---------------------------------------------------------------------------


def test_band_limited_walk_shape_limits_determinism():
    w1 = band_limited_walk(np.random.default_rng(2), 500, ar=0.95, sigma=1.2, limit=5.0)
    w2 = band_limited_walk(np.random.default_rng(2), 500, ar=0.95, sigma=1.2, limit=5.0)
    assert w1.shape == (500, 4)
    assert np.max(np.abs(w1)) <= 5.0
    assert np.array_equal(w1, w2)


@pytest.mark.parametrize("ar, sigma, limit", [(0.95, 1.2, 25.0), (0.99, 5.0, 10.0),
                                              (0.5, 0.3, 0.2)])
def test_band_limited_walk_matches_the_per_step_reference(ar, sigma, limit):
    # one draw per step, each clipped row kept while the AR state runs unclipped
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    walk = band_limited_walk(rng, 3000, ar=ar, sigma=sigma, limit=limit)
    x, ref = np.zeros(4), np.empty((3000, 4))
    for t in range(3000):
        x = ar * x + ref_rng.normal(0.0, sigma, size=4)
        ref[t] = np.clip(x, -limit, limit)
    assert walk.tobytes() == ref.tobytes()
    if limit < 25.0:
        assert np.count_nonzero(np.abs(ref) == limit) > 1000  # the clamp is exercised
    assert rng.normal() == ref_rng.normal()


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


def test_calibration_protocol_refuses_calibration_models(tmp_path, params):
    # the grid reads raw taps; nets given with it would be ignored without a word
    proto = {"kind": "calibration", "speeds": [8.0, 10.0], "repeats": 1, "name": "cal"}
    with pytest.raises(ValueError, match="calibration protocol reads raw taps; it takes no probe"):
        generate_dataset(proto, params, seed=7, out_dir=tmp_path / "out",
                         probe_models=tiny_calibration_nets())
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gust", [{"mode": "off"}, {"mode": "shedding", "amplitude": 0.4},
                                  {"mode": "shear", "yaw_deg": 3.0}], ids=lambda g: g["mode"])
def test_calibration_grid_matches_the_per_condition_reference_byte_for_byte(
        tmp_path, params, gust):
    # a repeated speed is its own block of rows, with its own times
    proto = {"kind": "calibration", "name": "grid", "speeds": [10, 12.0, 10],
             "alphas": [-5.0, 0, 5.0], "betas": [0.0, 4.0], "repeats": 3, "dt": 0.013,
             "exclude_points": [[12.0, 0, 4.0], [10, -5.0, 0.0]], "gust": gust}
    paths = generate_dataset(proto, params, seed=7, out_dir=tmp_path)
    # 18 grid points, less one at 12 m/s and one in each 10 m/s block, 3 repeats each
    assert len(probe_mod.load_calibration_csv(paths[0])) == 15 * 3
    for path, rows in zip(paths, reference_calibration_rows(proto, params, 7)):
        probe_mod.save_calibration_csv(tmp_path / "ref.csv", rows)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), path.name


def test_calibration_grid_evaluates_each_gust_once_per_speed(tmp_path, params, monkeypatch):
    proto = {"kind": "calibration", "speeds": [8.0, 10.0], "alphas": [0.0, 5.0],
             "betas": [0.0], "repeats": 4, "gust": {"mode": "shedding", "amplitude": 0.4}}
    calls = count_gust_calls(monkeypatch)
    generate_dataset(proto, params, seed=0, out_dir=tmp_path)
    assert calls == [("shedding", 8), ("shedding", 8)]  # 2 alphas x 4 repeats per speed


@pytest.mark.parametrize("calibrated", [False, True], ids=["ideal", "calibrated"])
def test_step_functions_over_a_slice_equal_the_one_step_results(params, calibrated):
    nets = tiny_calibration_nets() if calibrated else None
    rng = np.random.default_rng(6)
    t = np.arange(60) * 0.02
    alpha, beta = rng.uniform(-10.0, 10.0, size=(2, 60))
    gust = GustState(mode="shedding", amplitude=0.4, frequency_hz=8.0)
    terms = run_terms(params, 12.0, t, alpha, beta, gust, np.random.default_rng(1), nets)
    u = rng.uniform(-25.0, 25.0, size=(60, 4))
    for run in (slice(None), slice(7, 41)):
        steps = range(60)[run]
        obs, y = make_observation(terms, run, u[run]), true_wrench(terms, run, u[run])
        assert obs.shape == (len(steps), 13) and y.shape == (len(steps), 6)
        one_step_obs = [make_observation(terms, k, u[k]) for k in steps]
        assert obs.tobytes() == np.array(one_step_obs).tobytes()
        assert y.tobytes() == np.array([true_wrench(terms, k, u[k]) for k in steps]).tobytes()


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


def test_dynamics_run_evaluates_each_gust_once_per_run(tmp_path, params, monkeypatch):
    proto = {
        "kind": "dynamics", "speed": 10.0, "stage": "I", "duration_s": 2.0,
        "gust": {"mode": "shedding", "amplitude": 0.4}, "name": "count",
    }
    reference = generate_dataset(proto, params, seed=3, out_dir=tmp_path / "a")
    calls = count_gust_calls(monkeypatch)
    paths = generate_dataset(proto, params, seed=3, out_dir=tmp_path / "b")
    # 100 steps: one evaluation over all the run's times, not one per step
    assert calls == [("shedding", 100)]
    for pa, pb in zip(reference, paths):
        assert pa.read_bytes() == pb.read_bytes()


def test_run_terms_route_each_location_gust_to_its_own_features(params, rng):
    gust = GustState(mode="shedding", amplitude=0.4, frequency_hz=8.0)
    cond = Condition(10.0, 3.0, -2.0, gust, 0.37)
    terms = one_step(params, 10.0, 3.0, -2.0, gust, time=0.37)
    gusts = plant.gust_field(gust, np.array([cond.time]), cond.va, params)
    assert np.array_equal(terms.gusts, gusts)
    u = rng.uniform(-20.0, 20.0, size=4)
    obs = make_observation(terms, 0, u)
    # each location's gust reaches its own features: the probes' flows and the wing taps
    flows = [(10.0, 3.0 + d_alpha, -2.0 + d_beta) for d_alpha, d_beta in gusts[0, :2]]
    assert np.array_equal(obs[:6], np.ravel(flows))
    assert obs.tobytes() == reference_observation(params, cond, u).tobytes()
    assert true_wrench(terms, 0, u).tobytes() == reference_wrench(params, cond, u).tobytes()


def test_calibrated_run_terms_route_the_probe_gusts_through_the_nets(params, rng):
    nets = tiny_calibration_nets()
    gust = GustState(mode="shedding", amplitude=0.4, frequency_hz=8.0)
    cond = Condition(10.0, 3.0, -2.0, gust, 0.37)
    u = rng.uniform(-20.0, 20.0, size=4)
    terms = one_step(params, 10.0, 3.0, -2.0, gust, 0.37, np.random.default_rng(4), nets)
    obs = make_observation(terms, 0, u)
    flows = [FlowState(10.0, 3.0 + d_alpha, -2.0 + d_beta)
             for d_alpha, d_beta in plant.gust_field(gust, np.array([0.37]), 10.0, params)[0, :2]]
    taps_rng = np.random.default_rng(4)
    for net, flow, feats in zip(nets, flows, (obs[:3], obs[3:6])):
        taps = reference_probe_taps(params, flow, taps_rng)
        est = probe_mod.estimate_flow(net, taps, params.rho)
        assert np.array_equal(feats, [est.va, est.alpha_deg, est.beta_deg])
    reference = reference_observation(params, cond, u, np.random.default_rng(4), nets)
    assert obs.tobytes() == reference.tobytes()


def test_calibrated_run_terms_name_the_probe_and_step_of_a_failed_estimate(params):
    ok = nncore.Network([nncore.Layer(np.zeros((3, 5)), np.array([1.0, 0.0, 0.0]), "identity")])
    # Cd = cp[1] - 0.99: at zero incidence the four side taps are the coldest
    # (cp = 1); at negative alpha the up tap is warmer, and the correction negative
    weight = np.zeros((3, 5))
    weight[0, 1] = 1.0
    bad = nncore.Network([nncore.Layer(weight, np.array([-0.99, 0.0, 0.0]), "identity")])
    alpha = np.zeros(6)
    alpha[3] = -10.0
    t = np.arange(6) * 0.02
    plant.run_terms(params, 10.0, t, np.zeros(6), np.zeros(6), probe_models=(ok, bad))
    with pytest.raises(ValueError, match=r"^probe1: dynamic-pressure correction .* at row 3$"):
        plant.run_terms(params, 10.0, t, alpha, np.zeros(6), probe_models=(ok, bad))


def reference_dynamics_files(protocol, params, seed, out_dir, probe_models=None):
    """`generate_dynamics_data`'s files, each step computed per condition by
    the conftest reference; the set-up and writers are the generator's."""
    rng = np.random.default_rng(seed)
    speed = float(protocol["speed"])
    t, alpha, beta = stage_schedule(protocol, params, rng)
    controls = band_limited_walk(rng, t.size, **plant._excitation_args({}))
    gust = gust_from_spec(protocol.get("gust"), speed, params)
    obs, y, wing = [], [], []
    for tk, a, b, u in zip(t.tolist(), alpha.tolist(), beta.tolist(), controls):
        cond = Condition(speed, a, b, gust, tk)
        obs.append(reference_observation(params, cond, u, rng, probe_models))
        y.append(reference_wrench(params, cond, u, rng))
        wing.append(gust_at(gust, tk, "wing", speed, params))
    out_dir.mkdir()
    data_path, cond_path = out_dir / "ref.csv", out_dir / "ref_conditions.csv"
    save_dynamics_csv(data_path, (np.array(obs), controls, np.array(y)))
    write_table(cond_path, plant.CONDITIONS_CSV_HEADER, (
        [tk, speed, a, b, gust.mode, d_alpha, d_beta]
        for tk, a, b, (d_alpha, d_beta) in zip(t.tolist(), alpha.tolist(), beta.tolist(), wing)
    ))
    return [data_path, cond_path]


@pytest.mark.parametrize("calibrated", [False, True], ids=["ideal", "calibrated"])
@pytest.mark.parametrize("gust", [{"mode": "off"}, {"mode": "shedding", "amplitude": 0.4},
                                  {"mode": "shear", "yaw_deg": 3.0}], ids=lambda g: g["mode"])
def test_dynamics_data_matches_the_per_condition_reference_byte_for_byte(
        tmp_path, params, gust, calibrated):
    nets = tiny_calibration_nets() if calibrated else None
    proto = {"kind": "dynamics", "speed": 11.0, "stage": "I", "duration_s": 3.0,
             "gust": gust, "name": "run"}
    paths = generate_dataset(proto, params, seed=5, out_dir=tmp_path / "run", probe_models=nets)
    reference = reference_dynamics_files(proto, params, 5, tmp_path / "ref", nets)
    for path, ref in zip(paths, reference):
        assert path.read_bytes() == ref.read_bytes(), path.name


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


@pytest.mark.parametrize("field", ["rho", "wing_area", "span", "chord"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_plant_params_reject_non_finite_geometry(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        PlantParams(**{field: bad})


@pytest.mark.parametrize("field, bad", [
    ("cl_alpha", "0.1"), ("rho", True), ("probe_noise_pa", None),
    ("wing_tap_a", 3), ("wing_tap_b", (1.0,) * 6 + ("x",)),
    ("gust_weight", [1, 2]), ("streamwise_offset_m", {"probe0": 0, "probe1": 0, "wing": "0"}),
])
def test_plant_params_name_a_wrong_typed_field(field, bad):
    with pytest.raises(ValueError, match=f"^{field} "):
        PlantParams(**{field: bad})


def test_plant_params_from_json(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"rho": 1.1, "wing_noise_pa": 2.5}')
    params = plant.plant_params_from_json(path)
    assert params.rho == 1.1
    assert params.wing_noise_pa == 2.5
    assert params.wing_area == 0.30
