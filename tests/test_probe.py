"""Probe calibration: normalization, round-trip identity, training, CSV I/O."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeroalloc import nncore, probe
from aeroalloc.probe import (
    CalibrationTrainConfig,
    FlowState,
    NoFlowError,
    ProbePressures,
    dynamic_pressure_correction,
    estimate_flow,
    normalize,
    reconstruct_airspeed,
    train_calibration,
)

from conftest import reference_probe_taps


def test_normalize_known_vector():
    cp, delta_p = normalize(ProbePressures(np.array([100.0, 80.0, 60.0, 40.0, 20.0])))
    assert np.allclose(cp, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert delta_p == 80.0


def test_normalize_flat_taps_raise():
    with pytest.raises(NoFlowError):
        normalize(ProbePressures(np.full(5, 5.0)))


def test_normalize_contains_exact_zero_and_one(rng):
    for _ in range(20):
        p = ProbePressures(rng.normal(50.0, 20.0, size=5))
        cp, _ = normalize(p)
        assert cp.min() == 0.0
        assert cp.max() == 1.0


@given(
    offset=st.floats(-1e4, 1e4),
    scale=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**31),
)
def test_normalize_gauge_and_scale_invariance(offset, scale, seed):
    taps = np.random.default_rng(seed).normal(100.0, 30.0, size=5)
    if taps.max() - taps.min() < 1e-3:
        return
    base_cp, base_dp = normalize(ProbePressures(taps))
    shifted_cp, _ = normalize(ProbePressures(taps + offset))
    scaled_cp, scaled_dp = normalize(ProbePressures(taps * scale))
    assert np.allclose(shifted_cp, base_cp, atol=1e-9)
    assert np.allclose(scaled_cp, base_cp, atol=1e-9)
    assert scaled_dp == pytest.approx(base_dp * scale)


def test_reconstruct_known_values():
    assert reconstruct_airspeed(1.0, 61.25, 1.225) == pytest.approx(10.0)
    assert reconstruct_airspeed(0.5, 100.0, 1.25) == pytest.approx(np.sqrt(80.0))


def test_reconstruct_rejects_nonpositive():
    with pytest.raises(ValueError):
        reconstruct_airspeed(0.0, 10.0, 1.225)
    with pytest.raises(ValueError):
        reconstruct_airspeed(1.0, 0.0, 1.225)
    with pytest.raises(ValueError):
        reconstruct_airspeed(1.0, 10.0, -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reconstruct_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="dynamic-pressure correction"):
        reconstruct_airspeed(bad, 10.0, 1.225)
    with pytest.raises(ValueError, match="tap spread"):
        reconstruct_airspeed(1.0, bad, 1.225)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_dynamic_pressure_correction_rejects_bad_spread(bad):
    with pytest.raises(ValueError, match="tap spread"):
        dynamic_pressure_correction(10.0, bad, 1.225)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_air_density_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="air density"):
        reconstruct_airspeed(1.0, 61.25, bad)
    with pytest.raises(ValueError, match="air density"):
        dynamic_pressure_correction(10.0, 61.25, bad)


@given(
    va=st.floats(0.1, 50.0),
    delta_p=st.floats(1e-3, 1e4),
    rho=st.floats(0.5, 2.0),
)
def test_round_trip_machine_precision(va, delta_p, rho):
    cd = dynamic_pressure_correction(va, delta_p, rho)
    back = reconstruct_airspeed(cd, delta_p, rho)
    assert back == pytest.approx(va, rel=1e-12)


def test_calibrate_zero_network_gives_bias():
    layers = [
        nncore.Layer(np.zeros((4, 5)), np.zeros(4), "tanh"),
        nncore.Layer(np.zeros((3, 4)), np.array([0.9, 1.0, -2.0]), "identity"),
    ]
    net = nncore.Network(layers)
    flow = probe.estimate_flow_rows(net, np.arange(5.0)[None])  # a tap spread of 4 Pa
    assert flow.tolist() == [[np.sqrt(2.0 * 4.0 * 0.9 / probe.RHO), 1.0, -2.0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_calibrate_rejects_non_finite_output(monkeypatch, index, bad):
    out = np.array([0.9, 1.0, -2.0])
    out[index] = bad
    monkeypatch.setattr(probe.nncore, "forward", lambda net, x: out)
    net = nncore.init_network([5, 3], seed=0)
    with pytest.raises(ValueError, match="network output must be finite"):
        probe.estimate_flow_rows(net, np.arange(5.0)[None])


def test_estimate_flow_rejects_nan_network():
    # the hidden layer overflows to inf and the zero output weights turn it into NaN
    net = nncore.Network([
        nncore.Layer(np.full((4, 5), 1e308), np.zeros(4), "identity"),
        nncore.Layer(np.zeros((3, 4)), np.zeros(3), "identity"),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            estimate_flow(net, ProbePressures(np.arange(5.0)))


def test_calibrate_rejects_wrong_widths():
    net = nncore.init_network([4, 3], seed=0)
    with pytest.raises(ValueError, match="must map 5 -> 3"):
        probe.estimate_flow_rows(net, np.arange(5.0)[None])


def test_calibrate_depends_only_on_cp(rng):
    # scaling all taps leaves the network input, hence (Cd, alpha, beta), unchanged,
    # so the angles stay and Va = sqrt(2 dp Cd / rho) scales with sqrt of the spread
    net = nncore.init_network([5, 8, 3], seed=4)
    net.layers[-1].bias[0] = 20.0  # a positive correction
    taps = rng.normal(80.0, 10.0, size=5)
    a, b = probe.estimate_flow_rows(net, np.stack([taps, taps * 3.7]))
    assert b[1:] == pytest.approx(a[1:], abs=1e-9)
    assert b[0] == pytest.approx(a[0] * np.sqrt(3.7), rel=1e-12)


def test_estimate_flow_propagates_no_flow():
    net = nncore.init_network([5, 8, 3], seed=0)
    with pytest.raises(NoFlowError):
        estimate_flow(net, ProbePressures(np.zeros(5)))


def _reference_estimate(net, taps, rho):
    """One reading through the chain the way it ran before the row form: a
    one-row network pass per reading."""
    p_max = float(taps.max())
    delta_p = p_max - float(taps.min())
    cd, alpha_deg, beta_deg = nncore.forward(net, ((p_max - taps) / delta_p)[None])[0].tolist()
    return float(np.sqrt(2.0 * delta_p * cd / rho)), alpha_deg, beta_deg


def test_estimate_flow_rows_equals_one_reading_calls_bit_for_bit(rng):
    from aeroalloc import plant

    params = plant.PlantParams()
    net = nncore.init_network([5, 32, 32, 3], seed=6)
    net.layers[-1].bias[0] = 20.0  # a positive correction on every reading
    n = 2 * probe.ROWS_PER_BLOCK + 100  # the last block is a partial one
    taps = plant.probe_taps(10.0, rng.uniform(-15.0, 15.0, n), rng.uniform(-15.0, 15.0, n),
                            params) + rng.normal(0.0, 0.5, (n, 5))
    rows = probe.estimate_flow_rows(net, taps, params.rho)
    one = [estimate_flow(net, ProbePressures(p), params.rho) for p in taps]
    assert np.array_equal(rows, [[e.va, e.alpha_deg, e.beta_deg] for e in one])
    assert np.array_equal(rows, [_reference_estimate(net, p, params.rho) for p in taps])


HEALTHY_TAPS = [100.0, 99.0, 99.0, 99.0, 0.0]  # coefficients (0, 0.01, 0.01, 0.01, 1)


@pytest.mark.parametrize("fault,bad_taps,error,what", [
    ("non-finite-taps", [np.nan, 99.0, 99.0, 99.0, 0.0], ValueError,
     "tap pressures must be finite"),
    ("no-flow", [7.0] * 5, NoFlowError, "tap spread"),
    ("nan-net", [100.0, 0.0, 0.0, 0.0, 0.0], ValueError, "network output must be finite"),
    ("negative-cd", [0.0, 99.0, 99.0, 99.0, 100.0], ValueError,
     "correction must be positive and finite"),
])
def test_estimate_flow_rows_names_the_first_faulty_row(fault, bad_taps, error, what):
    if fault == "nan-net":
        # coefficients summing past 1.8 overflow the hidden layer; 0 * inf is NaN
        net = nncore.Network([
            nncore.Layer(np.full((4, 5), 1e308), np.zeros(4), "identity"),
            nncore.Layer(np.zeros((3, 4)), np.array([1.0, 0.0, 0.0]), "identity"),
        ])
    else:
        # Cd = 0.5 - cp[0]: negative where the center tap is the coldest
        weight = np.zeros((3, 5))
        weight[0, 0] = -1.0
        net = nncore.Network([nncore.Layer(weight, np.array([0.5, 0.0, 0.0]), "identity")])
    taps = np.tile(HEALTHY_TAPS, (600, 1))
    assert np.isfinite(probe.estimate_flow_rows(net, taps)).all()
    taps[300] = bad_taps
    taps[550] = bad_taps
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error, match=f"{what}.* at row 300$"):
            probe.estimate_flow_rows(net, taps)
        with pytest.raises(error, match=what):
            estimate_flow(net, ProbePressures(taps[300]))


def _grid_dataset(repeats=2, seed=0, speeds=(8.0, 10.0, 12.0)):
    from aeroalloc import plant

    params = plant.PlantParams()
    rng = np.random.default_rng(seed)
    rows = []
    for va in speeds:
        for alpha in (-10.0, -5.0, 0.0, 5.0, 10.0):
            for beta in (-10.0, -5.0, 0.0, 5.0, 10.0):
                flow = FlowState(va=va, alpha_deg=alpha, beta_deg=beta)
                for _ in range(repeats):
                    p = reference_probe_taps(params, flow, rng)
                    rows.append((p, flow))
    return rows


def test_train_calibration_memorizes_single_point():
    flow = FlowState(va=10.0, alpha_deg=2.0, beta_deg=-3.0)
    p = ProbePressures(np.array([60.0, 40.0, 55.0, 50.0, 45.0]))
    dataset = [(p, flow), (p, FlowState(va=10.0, alpha_deg=2.0, beta_deg=-3.0))]
    # needs two distinct speeds; duplicate the sample at a second speed label
    dataset.append((ProbePressures(p.p * 1.44), FlowState(va=12.0, alpha_deg=2.0, beta_deg=-3.0)))
    history = []
    cfg = CalibrationTrainConfig(seed=0, hidden=(8,), epochs=400, lr=1e-2)
    net = train_calibration(dataset, cfg, history=history)
    assert history[-1] < 1e-3
    est = estimate_flow(net, p)
    assert est.alpha_deg == pytest.approx(2.0, abs=0.2)


def test_train_calibration_rejects_bad_datasets():
    with pytest.raises(ValueError):
        train_calibration([], CalibrationTrainConfig())
    flow = FlowState(va=10.0, alpha_deg=0.0, beta_deg=0.0)
    p = ProbePressures(np.array([60.0, 40.0, 55.0, 50.0, 45.0]))
    with pytest.raises(ValueError):
        # single distinct airspeed
        train_calibration([(p, flow), (p, flow)], CalibrationTrainConfig())
    degenerate = ProbePressures(np.full(5, 3.0))
    with pytest.raises(ValueError):
        train_calibration(
            [(degenerate, flow), (degenerate, FlowState(12.0, 0.0, 0.0))],
            CalibrationTrainConfig(),
        )


@pytest.mark.parametrize("bad", [dict(epochs=0), dict(epochs=-2)])
def test_calibration_train_config_validation(bad):
    with pytest.raises(ValueError, match="epochs must be positive"):
        CalibrationTrainConfig(**bad)


@pytest.mark.parametrize("bad", [
    dict(hidden=()), dict(hidden=(0,)), dict(hidden=(8, -1)), dict(hidden=(8.5,)),
    dict(hidden=(True,)), dict(epochs=2.5), dict(epochs=True),
])
def test_calibration_train_config_rejects_a_bad_budget(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must"):
        CalibrationTrainConfig(**bad)


def test_train_calibration_loss_decreases():
    history = []
    cfg = CalibrationTrainConfig(seed=0, hidden=(16,), epochs=60)
    train_calibration(_grid_dataset(repeats=1), cfg, history=history)
    assert history[-1] < history[0]


def test_trained_model_interpolates(rng):
    from aeroalloc import plant

    cfg = CalibrationTrainConfig(seed=0, epochs=500)
    net = train_calibration(_grid_dataset(repeats=6), cfg)
    params = plant.PlantParams()
    # off-grid condition, noise-free taps
    flow = FlowState(va=9.0, alpha_deg=2.5, beta_deg=-7.5)
    est = estimate_flow(net, plant.probe_pressures(flow, params))
    assert est.alpha_deg == pytest.approx(2.5, abs=2.0)
    assert est.beta_deg == pytest.approx(-7.5, abs=2.0)
    assert est.va == pytest.approx(9.0, rel=0.05)


def test_calibration_csv_roundtrip(tmp_path):
    rows = _grid_dataset(repeats=1, seed=5)[:10]
    path = tmp_path / "cal.csv"
    probe.save_calibration_csv(path, rows)
    loaded = probe.load_calibration_csv(path)
    assert len(loaded) == len(rows)
    for (p0, f0), (p1, f1) in zip(rows, loaded):
        assert np.array_equal(p0.p, p1.p)
        assert (f0.va, f0.alpha_deg, f0.beta_deg) == (f1.va, f1.alpha_deg, f1.beta_deg)


@pytest.mark.parametrize("column,bad", [(5, "nan"), (6, "inf"), (7, "-inf")])
def test_calibration_csv_rejects_non_finite_labels(tmp_path, column, bad):
    path = tmp_path / "cal.csv"
    row = ["101.0", "60.0", "60.0", "60.0", "60.0", "10.0", "0.0", "0.0"]
    row[column] = bad
    path.write_text("p1,p2,p3,p4,p5,Va,alpha_deg,beta_deg\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match="finite"):
        probe.load_calibration_csv(path)


def test_calibration_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        probe.load_calibration_csv(path)


def test_flow_state_rejects_negative_speed():
    with pytest.raises(ValueError):
        FlowState(va=-1.0, alpha_deg=0.0, beta_deg=0.0)
