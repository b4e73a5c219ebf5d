from dataclasses import dataclass

import numpy as np
import pytest

from aeroalloc.plant import GustState


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central-difference gradient of a scalar loss over a flat parameter vector."""
    grads = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += h
        hi = loss_fn(bumped)
        bumped[i] -= 2.0 * h
        lo = loss_fn(bumped)
        grads[i] = (hi - lo) / (2.0 * h)
    return grads


def relative_error(approx, exact):
    scale = np.maximum(np.abs(exact), 1.0)
    return np.max(np.abs(approx - exact) / scale)


def constant_affine_model(a_vec, b_mat):
    """Zero-weight networks reduce the wrench model to constant (A, B) heads."""
    from aeroalloc import nncore
    from aeroalloc.dynamics import AffineModel

    backbone = nncore.Network([nncore.Layer(np.zeros((1, 13)), np.zeros(1), "tanh")])
    a_head = nncore.Network([nncore.Layer(np.zeros((6, 1)), np.asarray(a_vec, float), "identity")])
    b_head = nncore.Network(
        [nncore.Layer(np.zeros((24, 1)), np.asarray(b_mat, float).ravel(), "identity")]
    )
    return AffineModel(
        backbone=backbone, a_head=a_head, b_head=b_head,
        obs_mean=np.zeros(13), obs_std=np.ones(13),
    )


def unstructured_model(hidden=(8,), seed=0):
    """An untrained baseline net with unit input scaling."""
    from aeroalloc import nncore
    from aeroalloc.dynamics import UnstructuredModel

    net = nncore.init_network((17, *hidden, 6), seed)
    return UnstructuredModel(net, np.zeros(17), np.ones(17))


def gust_at(gust, time: float, location: str, va: float, params) -> tuple[float, float]:
    """`plant.gust_perturbation` at one time, as two floats."""
    from aeroalloc import plant

    d_alpha, d_beta = plant.gust_perturbation(gust, np.array([time]), location, va, params)
    return float(d_alpha[0]), float(d_beta[0])


def count_gust_calls(monkeypatch) -> list:
    """Patch plant.gust_perturbation to log (gust mode, location) per call."""
    from aeroalloc import plant

    calls = []
    original = plant.gust_perturbation

    def counted(gust, time, location, va, params):
        calls.append((gust.mode, location))
        return original(gust, time, location, va, params)

    monkeypatch.setattr(plant, "gust_perturbation", counted)
    return calls


@dataclass(frozen=True)
class Condition:
    """One tunnel condition of the per-condition references below."""

    va: float
    alpha_deg: float
    beta_deg: float
    gust: GustState = GustState()
    time: float = 0.0


def reference_probe_taps(params, flow, rng=None):
    """A probe's five tap pressures in `flow`, plus `rng.normal` noise when given an rng."""
    from aeroalloc import plant, probe

    taps = plant.probe_pressures(flow, params)
    if rng is None:
        return taps
    return probe.ProbePressures(taps.p + rng.normal(0.0, params.probe_noise_pa, size=5))


def reference_calibration_rows(protocol, params, seed):
    """The (probe0, probe1) rows of a calibration grid protocol that gives its
    speeds, alphas, betas, repeats and dt, built the way the plant did before
    it drew a grid's gusts and noise as tables: one condition per row, a
    `gust_perturbation` call per row, and per-row `rng.normal` draws."""
    from aeroalloc import plant, probe

    rng = np.random.default_rng(seed)
    exclude = {tuple(pt) for pt in protocol.get("exclude_points", [])}
    rows, tick = ([], []), 0
    for va in protocol["speeds"]:
        gust = plant.gust_from_spec(protocol.get("gust"), va, params)
        for alpha in protocol["alphas"]:
            for beta in protocol["betas"]:
                if (va, alpha, beta) in exclude:
                    continue
                for _ in range(protocol["repeats"]):
                    cond = Condition(va, alpha, beta, gust, tick * protocol["dt"])
                    tick += 1
                    for i, loc in enumerate(("probe0", "probe1")):
                        d_alpha, d_beta = gust_at(gust, cond.time, loc, va, params)
                        flow = probe.FlowState(va, alpha + d_alpha, beta + d_beta)
                        rows[i].append((reference_probe_taps(params, flow, rng), flow))
    return rows


def reference_observation(params, cond, u, rng=None, probe_models=None):
    """The (13,) observation of one `Condition`, computed the way the plant
    step did before its command-independent terms moved into a per-run
    table: every gust evaluated for the condition, every noise value drawn
    with `rng.normal` in the step's order."""
    from aeroalloc import plant, probe

    gusts = [gust_at(cond.gust, cond.time, loc, cond.va, params) for loc in plant.LOCATIONS]
    feats = []
    for i, (d_alpha, d_beta) in enumerate(gusts[:2]):
        va, al, be = cond.va, cond.alpha_deg + d_alpha, cond.beta_deg + d_beta
        if probe_models is not None:
            taps = reference_probe_taps(params, probe.FlowState(va, al, be), rng)
            est = probe.estimate_flow(probe_models[i], taps, params.rho)
            feats.extend([est.va, est.alpha_deg, est.beta_deg])
        else:
            if rng is not None:
                va += rng.normal(0.0, params.est_noise_va)
                al += rng.normal(0.0, params.est_noise_angle_deg)
                be += rng.normal(0.0, params.est_noise_angle_deg)
            feats.extend([max(va, 0.0), al, be])
    d_alpha, d_beta = gusts[2]
    tap_a, tap_b, tap_c, tap_d = (np.array(getattr(params, f"wing_tap_{x}"), dtype=float)
                                  for x in "abcd")
    q = 0.5 * params.rho * cond.va * cond.va
    taps = q * (tap_a + tap_b * (cond.alpha_deg + d_alpha) + tap_c * u[1]
                + tap_d * (d_alpha + d_beta))
    if rng is not None:
        taps = taps + rng.normal(0.0, params.wing_noise_pa, size=7)
    return np.concatenate([feats, taps])


def reference_wrench(params, cond, u, rng=None):
    """The (6,) wrench of one condition, computed as `reference_observation` is."""
    d_alpha, d_beta = gust_at(cond.gust, cond.time, "wing", cond.va, params)
    q_s = 0.5 * params.rho * cond.va * cond.va * params.wing_area
    y = q_s * (params.baseline_coefficients(cond.alpha_deg + d_alpha, cond.beta_deg + d_beta)
               + params.control_matrix() @ u)
    if rng is not None:
        y = y + np.concatenate([rng.normal(0.0, params.force_noise_n, size=3),
                                rng.normal(0.0, params.torque_noise_nm, size=3)])
    return y
