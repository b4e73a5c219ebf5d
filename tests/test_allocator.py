"""Allocation QP: normal equations, solver optimality, clamping, tracking loop."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from aeroalloc import allocator
from aeroalloc.allocator import (
    AllocationProblem,
    NotStrictlyConvexError,
    TrackingConfig,
    build_normal_equations,
    load_tracking_csv,
    objective,
    save_tracking_csv,
    solve,
    track_sequence,
)
from aeroalloc.dynamics import Control, Wrench

from conftest import constant_affine_model as constant_model, finite_difference_grads


def random_problem(rng, lambda0=0.01, lambda1=0.1):
    return AllocationProblem(
        a=rng.normal(size=6),
        b=rng.normal(size=(6, 4)),
        y_target=rng.normal(size=6),
        u_prev=rng.normal(size=4),
        u_trim=rng.normal(size=4),
        lambda0=lambda0,
        lambda1=lambda1,
    )


def test_normal_equations_match_objective_gradient(rng):
    # grad of the objective at any u must equal Q u - c
    for _ in range(10):
        p = random_problem(rng)
        q, c = build_normal_equations(p)
        u = rng.normal(size=4)
        fd = finite_difference_grads(lambda v: objective(p, v), u, h=1e-6)
        assert np.allclose(fd, q @ u - c, rtol=1e-5, atol=1e-5)


def test_normal_equations_known_values():
    b = np.zeros((6, 4))
    b[0, 0] = 2.0
    p = AllocationProblem(
        a=np.zeros(6), b=b, y_target=np.eye(6)[0] * 3.0,
        u_prev=np.array([1.0, 0.0, 0.0, 0.0]),
        lambda0=0.5, lambda1=0.25,
    )
    q, c = build_normal_equations(p)
    assert np.allclose(q, np.diag([2 * (4 + 0.75), 1.5, 1.5, 1.5]))
    assert np.allclose(c, [2 * (6.0 + 0.25), 0.0, 0.0, 0.0])


def test_q_positive_definite(rng):
    for _ in range(25):
        p = random_problem(rng, lambda0=rng.uniform(0, 1), lambda1=rng.uniform(1e-6, 1))
        q, _ = build_normal_equations(p)
        assert np.all(np.linalg.eigvalsh(q) > 0.0)
        assert np.allclose(q, q.T)


def test_solver_reaches_stationary_point(rng):
    p = random_problem(rng)
    sol = solve(p)
    fd = finite_difference_grads(lambda v: objective(p, v), sol.u_unconstrained, h=1e-6)
    assert np.max(np.abs(fd)) < 1e-4


@given(seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_solver_beats_random_candidates(seed):
    rng = np.random.default_rng(seed)
    p = random_problem(rng)
    sol = solve(p)
    for _ in range(10):
        other = sol.u_unconstrained + rng.normal(scale=0.5, size=4)
        assert objective(p, sol.u_unconstrained) <= objective(p, other) + 1e-12


def test_zero_effectiveness_blends_references(rng):
    # with b = 0 the optimum is the penalty-weighted mean of the references
    u_prev, u_trim = rng.normal(size=4), rng.normal(size=4)
    p = AllocationProblem(
        a=np.zeros(6), b=np.zeros((6, 4)), y_target=np.ones(6),
        u_prev=u_prev, u_trim=u_trim, lambda0=0.3, lambda1=0.7,
    )
    expected = 0.7 * u_prev + 0.3 * u_trim
    assert np.allclose(solve(p).u_unconstrained, expected)


def test_large_smoothness_pins_previous_command(rng):
    u_prev = np.array([3.0, -2.0, 1.0, 0.5])
    p = AllocationProblem(
        a=np.zeros(6), b=rng.normal(size=(6, 4)), y_target=rng.normal(size=6) * 10,
        u_prev=u_prev, lambda0=0.0, lambda1=1e8,
    )
    assert np.allclose(solve(p).u_unconstrained, u_prev, atol=1e-4)


def test_zero_penalties_rejected():
    with pytest.raises(NotStrictlyConvexError):
        AllocationProblem(
            a=np.zeros(6), b=np.zeros((6, 4)), y_target=np.zeros(6),
            lambda0=0.0, lambda1=0.0,
        )
    assert issubclass(NotStrictlyConvexError, ValueError)


def test_negative_penalty_rejected():
    with pytest.raises(ValueError):
        AllocationProblem(
            a=np.zeros(6), b=np.zeros((6, 4)), y_target=np.zeros(6), lambda0=-0.1,
        )


def test_problem_validates_shapes():
    with pytest.raises(ValueError):
        AllocationProblem(a=np.zeros(5), b=np.zeros((6, 4)), y_target=np.zeros(6))
    with pytest.raises(ValueError):
        AllocationProblem(a=np.zeros(6), b=np.zeros((4, 6)), y_target=np.zeros(6))
    with pytest.raises(ValueError):
        AllocationProblem(a=np.zeros(6), b=np.full((6, 4), np.nan), y_target=np.zeros(6))


@pytest.mark.parametrize("part", ["a", "y_target", "u_prev", "u_trim"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_parts(part, bad):
    parts = {"a": np.zeros(6), "y_target": np.zeros(6), "u_prev": np.zeros(4),
             "u_trim": np.zeros(4)}
    parts[part][1] = bad
    with pytest.raises(ValueError, match="finite"):
        AllocationProblem(b=np.zeros((6, 4)), **parts)


def test_solve_matches_scipy_cholesky_bit_for_bit(rng):
    saturated = AllocationProblem(
        a=np.zeros(6), b=np.vstack([np.eye(4) * 0.01, np.zeros((2, 4))]),
        y_target=np.array([50.0, -50.0, 0.0, 0.0, 1.0, 2.0]), lambda0=0.0, lambda1=1e-6,
    )
    problems = [random_problem(rng, rng.uniform(0, 1), rng.uniform(1e-3, 1)) for _ in range(50)]
    for p in problems + [saturated]:
        sol = solve(p)
        q, c = build_normal_equations(p)
        u = cho_solve(cho_factor(q, lower=True), c)
        assert np.array_equal(sol.u_unconstrained, u)
        resid = p.y_target - p.a - p.b @ u
        assert sol.objective_value == objective(p, u)
        assert sol.residual_norm == float(np.linalg.norm(resid))
    assert solve(saturated).clamped[:2].all()


def test_solve_rejects_non_finite_normal_equations():
    p = AllocationProblem(a=np.zeros(6), b=np.full((6, 4), 1e200), y_target=np.zeros(6))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        solve(p)


def test_unclamped_solution_matches_exactly(rng):
    p = random_problem(rng, lambda0=1.0, lambda1=1.0)  # heavy penalties keep u small
    sol = solve(p)
    assert not sol.clamped.any()
    assert np.array_equal(sol.u_star.as_array(), sol.u_unconstrained)


def test_clamping_flags_and_limits():
    b = np.vstack([np.eye(4) * 0.01, np.zeros((2, 4))])
    p = AllocationProblem(
        a=np.zeros(6), b=b,
        y_target=np.array([50.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        lambda0=0.0, lambda1=1e-6,
    )
    sol = solve(p)
    assert sol.clamped[0] and not sol.clamped[1:].any()
    assert sol.u_star.d_la == 25.0
    assert abs(sol.u_unconstrained[0]) > 25.0
    assert np.max(np.abs(sol.u_star.as_array())) <= 25.0


def test_solution_reports_unconstrained_metrics(rng):
    p = random_problem(rng)
    sol = solve(p)
    resid = p.y_target - p.a - p.b @ sol.u_unconstrained
    assert sol.residual_norm == pytest.approx(np.linalg.norm(resid))
    assert sol.objective_value == pytest.approx(objective(p, sol.u_unconstrained))


def test_tracking_config_validation():
    with pytest.raises(ValueError):
        TrackingConfig(lambda0=0.0, lambda1=0.0)
    with pytest.raises(ValueError):
        TrackingConfig(dt=0.0)


def test_track_sequence_matches_manual_iteration(rng):
    a_vec = np.array([0.1, -0.2, 0.05, 0.0, 0.02, -0.01])
    b_mat = np.vstack([np.eye(4) * 0.4, np.ones((2, 4)) * 0.05])
    model = constant_model(a_vec, b_mat)
    targets = rng.normal(scale=2.0, size=(12, 6))
    obs = [np.zeros(13)] * 12
    cfg = TrackingConfig(lambda0=0.02, lambda1=0.2)
    tlog = track_sequence(model, targets, obs, cfg)

    u_prev = np.zeros(4)
    for k in range(12):
        p = AllocationProblem(
            a_vec, b_mat, targets[k], u_prev=u_prev, u_trim=np.zeros(4),
            lambda0=0.02, lambda1=0.2,
        )
        u_prev = solve(p).u_star.as_array()
        assert np.array_equal(tlog.controls[k], u_prev)
        assert np.allclose(tlog.predicted[k], a_vec + b_mat @ u_prev)
    # no plant callback: achieved repeats predicted
    assert np.array_equal(tlog.achieved, tlog.predicted)
    assert np.allclose(tlog.t, np.arange(12) * cfg.dt)


def test_track_sequence_callable_observations_thread_commands():
    model = constant_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))
    seen = []

    def obs_fn(k, u_prev):
        assert isinstance(u_prev, Control)
        seen.append(u_prev.as_array())
        return np.zeros(13)

    targets = np.tile(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), (4, 1))
    tlog = track_sequence(model, targets, obs_fn, TrackingConfig())
    # step k sees the command applied at step k-1
    assert np.array_equal(seen[0], np.zeros(4))
    for k in range(1, 4):
        assert np.array_equal(seen[k], tlog.controls[k - 1])


def test_track_sequence_uses_achieved_fn():
    model = constant_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))
    targets = np.zeros((3, 6))

    def plant(k, u):
        return Wrench(float(k), 0.0, 0.0, 0.0, 0.0, 0.0)

    tlog = track_sequence(model, targets, [np.zeros(13)] * 3, TrackingConfig(), achieved_fn=plant)
    assert np.array_equal(tlog.achieved[:, 0], [0.0, 1.0, 2.0])
    assert tlog.tracking_rmse() == pytest.approx(np.sqrt(np.mean(tlog.achieved ** 2)))


def test_track_sequence_needs_one_observation_per_target():
    model = constant_model(np.zeros(6), np.zeros((6, 4)))
    with pytest.raises(ValueError):
        track_sequence(model, np.zeros((3, 6)), [np.zeros(13)] * 2, TrackingConfig())


def test_track_sequence_names_step_of_non_finite_model_output():
    model = constant_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))
    obs = [np.zeros(13)] * 5
    obs[3] = np.full(13, np.nan)  # the zero-weight backbone passes NaN through
    with pytest.raises(ArithmeticError, match="non-finite model output at step 3"):
        track_sequence(model, np.zeros((5, 6)), obs, TrackingConfig())


def test_track_sequence_validates_targets_and_config():
    model = constant_model(np.zeros(6), np.zeros((6, 4)))
    targets = np.zeros((3, 6))
    targets[1, 2] = np.inf
    with pytest.raises(ValueError, match="targets must be finite"):
        track_sequence(model, targets, [np.zeros(13)] * 3, TrackingConfig())
    cfg = TrackingConfig()
    cfg.lambda1 = 0.0
    cfg.lambda0 = 0.0
    with pytest.raises(NotStrictlyConvexError):
        track_sequence(model, np.zeros((3, 6)), [np.zeros(13)] * 3, cfg)


def test_track_sequence_rejects_unknown_model():
    with pytest.raises(TypeError):
        track_sequence(object(), np.zeros((1, 6)), [np.zeros(13)], TrackingConfig())


def test_tracking_rmse_hand_value():
    tlog = allocator.TrackingLog(
        t=np.arange(2.0),
        targets=np.zeros((2, 6)),
        predicted=np.zeros((2, 6)),
        achieved=np.full((2, 6), 2.0),
        controls=np.zeros((2, 4)),
        clamped=np.zeros((2, 4), dtype=bool),
    )
    assert tlog.tracking_rmse() == pytest.approx(2.0)


def test_tracking_csv_roundtrip(tmp_path, rng):
    model = constant_model(rng.normal(size=6) * 0.1, rng.normal(size=(6, 4)) * 0.3)
    tlog = track_sequence(
        model, rng.normal(size=(6, 6)), [np.zeros(13)] * 6, TrackingConfig()
    )
    path = tmp_path / "track.csv"
    save_tracking_csv(path, tlog)
    loaded = load_tracking_csv(path)
    for name in ("t", "targets", "predicted", "achieved", "controls"):
        assert np.array_equal(getattr(loaded, name), getattr(tlog, name)), name
    assert np.array_equal(loaded.clamped, tlog.clamped)


def test_tracking_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x\n0,1\n")
    with pytest.raises(ValueError):
        load_tracking_csv(path)
