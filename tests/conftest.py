import numpy as np
import pytest


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
