"""Allocation QP: normal equations, solver optimality, clamping, tracking loop."""
import dataclasses
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from aeroalloc import allocator, dynamics
from aeroalloc.allocator import (
    TRACKING_CSV_HEADER,
    AllocationProblem,
    NotStrictlyConvexError,
    TrackingConfig,
    build_normal_equations,
    objective,
    save_tracking_csv,
    solve,
    track_sequence,
)
from aeroalloc.blas import numpy_blas_function
from aeroalloc.table import read_table

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


SATURATED = AllocationProblem(
    a=np.zeros(6), b=np.vstack([np.eye(4) * 0.01, np.zeros((2, 4))]),
    y_target=np.array([50.0, -50.0, 0.0, 0.0, 1.0, 2.0]), lambda0=0.0, lambda1=1e-6,
)


def reference_problems(rng):
    """200 random problems, a third of them clamping, then SATURATED."""
    penalties = [(rng.uniform(0, 1), rng.uniform(1e-3, 1)) for _ in range(150)]
    penalties += [(0.0, rng.uniform(1e-3, 1)) for _ in range(25)]
    penalties += [(rng.uniform(1e-3, 1), 0.0) for _ in range(25)]
    problems = [random_problem(rng, lambda0, lambda1) for lambda0, lambda1 in penalties]
    for i in range(0, len(problems), 3):  # weak surfaces, a large target and light penalties
        p = problems[i]
        problems[i] = dataclasses.replace(p, b=0.05 * p.b, y_target=20.0 * p.y_target,
                                          lambda0=1e-3 * p.lambda0, lambda1=1e-3 * p.lambda1)
    return problems + [SATURATED]


def test_solve_matches_scipy_cholesky_bit_for_bit(rng):
    # solve forms Q and c in place and flags clamps against a threshold; the
    # result is build_normal_equations through a Cholesky solve and a clip
    clamped = 0
    for p in reference_problems(rng):
        sol = solve(p)
        q, c = build_normal_equations(p)
        u = cho_solve(cho_factor(q, lower=True), c)
        assert sol.u_unconstrained.tobytes() == u.tobytes()
        resid = p.y_target - p.a - p.b @ u
        assert objective(p, sol.u_unconstrained) == objective(p, u)
        resid_sol = p.y_target - p.a - p.b @ sol.u_unconstrained
        assert np.linalg.norm(resid_sol) == np.linalg.norm(resid)
        u_star = u.clip(-25.0, 25.0)
        assert sol.u_star.tobytes() == u_star.tobytes()
        assert np.array_equal(sol.clamped, np.abs(u) > np.abs(u_star) + 1e-12)
        clamped += bool(sol.clamped.any())
    assert solve(SATURATED).clamped[:2].all()
    assert 30 < clamped < 100
    # a command less than 1e-12 beyond the limit is clipped but not flagged
    b_eye = np.vstack([np.eye(4), np.zeros((2, 4))])
    y = np.array([25.0 + 5e-13, 0.0, -25.0 - 5e-13, 0.0, 0.0, 0.0])
    sol = solve(AllocationProblem(np.zeros(6), b_eye, y, lambda0=0.0, lambda1=1e-300))
    assert 25.0 < abs(sol.u_unconstrained[0]) <= 25.0 + 1e-12
    assert 25.0 < abs(sol.u_unconstrained[2]) <= 25.0 + 1e-12
    assert np.array_equal(np.abs(sol.u_star), [25.0, 0.0, 25.0, 0.0])
    assert not sol.clamped.any()


def _numpy_lapack_is_openblas():
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):  # a numpy that cannot say
        return False
    return "openblas" in str(lapack.get("name", "")).lower()


@pytest.mark.skipif(not _numpy_lapack_is_openblas(), reason="numpy's LAPACK is not OpenBLAS")
def test_solve_resolves_dposv_from_numpys_own_lapack(monkeypatch):
    # a silent fall back to SciPy would load it into every allocating process
    looked_up = []

    def lookup(name):
        looked_up.append(numpy_blas_function(name))
        return looked_up[-1]

    monkeypatch.setattr(allocator, "numpy_blas_function", lookup)
    allocator._posv.cache_clear()
    try:
        solve(SATURATED)
    finally:
        allocator._posv.cache_clear()
    assert len(looked_up) == 1 and looked_up[0].__name__.endswith(("dposv_", "dposv_64_"))


def test_scipy_fallback_equals_numpy_dposv_bit_for_bit(rng, monkeypatch):
    problems = reference_problems(rng)
    via_numpy = [solve(p).u_unconstrained.tobytes() for p in problems]
    looked_up = []
    monkeypatch.setattr(allocator, "numpy_blas_function", lambda name: looked_up.append(name))
    allocator._posv.cache_clear()
    try:
        via_scipy = [solve(p).u_unconstrained.tobytes() for p in problems]
    finally:
        allocator._posv.cache_clear()
    assert looked_up == ["dposv_"]  # found nothing, so the fallback ran
    assert via_scipy == via_numpy


def test_solve_keeps_each_threads_solution_apart(rng):
    # the LAPACK call works in per-process buffers; more threads than cores
    # and a short switch interval would mix their problems without the lock
    problems = reference_problems(rng)[:40]
    expected = [solve(p).u_unconstrained.tobytes() for p in problems]
    n_threads = 2 * (os.cpu_count() or 1) + 1
    mixed = []

    def work(k):
        for _ in range(50):
            for i in range(k, len(problems), n_threads):
                if solve(problems[i]).u_unconstrained.tobytes() != expected[i]:
                    mixed.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mixed == []


@pytest.mark.parametrize("lapack", ["numpy", "scipy"])
def test_solve_names_the_lapack_info_of_a_matrix_that_is_not_positive_definite(
        monkeypatch, lapack):
    if lapack == "scipy":
        monkeypatch.setattr(allocator, "numpy_blas_function", lambda name: None)
    q = np.diag([1.0, 2.0, -1.0, 1.0])  # the leading minor of order 3 is not positive
    monkeypatch.setattr(allocator, "build_normal_equations", lambda p: (q, np.ones(4)))
    allocator._posv.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=r"\(LAPACK info 3\)$"):
            solve(SATURATED)
    finally:
        allocator._posv.cache_clear()


def test_track_sequence_accepts_finite_values_near_the_float_limit():
    # entries near 1e308 are finite, though their sum overflows; the per-step
    # checks pass them silently, also under numpy's strictest error state
    huge = np.full(6, 1e308)
    a_vec = np.array([0.0, 0.0, 0.0, 0.0, 1e308, 1e308])  # rows B does not drive
    b_mat = np.vstack([np.eye(4), np.zeros((2, 4))])
    targets = np.tile(a_vec, (3, 1))
    with np.errstate(all="raise"):
        tlog = track_sequence(constant_model(a_vec, b_mat), targets, lambda k, u: np.zeros(13),
                              TrackingConfig(), achieved_fn=lambda k, u: huge)
    assert np.array_equal(tlog.predicted, targets) and np.array_equal(tlog.achieved[2], huge)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where, message", [
    ("a", "non-finite model output at step 3"),
    ("b", "non-finite model output at step 3"),
    ("achieved", "non-finite achieved wrench at step 3"),
])
def test_track_sequence_names_the_step_of_a_non_finite_value(monkeypatch, bad, where, message):
    model = constant_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))

    def predict(model_, k):  # the observation is the step index
        a, b = dynamics.predict(model_, np.zeros(13))
        if k == 3 and where != "achieved":
            a, b = a.copy(), b.copy()
            {"a": a, "b": b}[where].flat[4] = bad
        return a, b

    def achieved(k, u):
        row = np.ones(6)
        if k == 3 and where == "achieved":
            row[5] = bad
        return row

    monkeypatch.setattr(allocator, "predict", predict)
    with pytest.raises(ArithmeticError, match=message):
        track_sequence(model, np.zeros((6, 6)), lambda k, u: k, TrackingConfig(),
                       achieved_fn=achieved)


def test_solve_rejects_non_finite_normal_equations():
    p = AllocationProblem(a=np.zeros(6), b=np.full((6, 4), 1e200), y_target=np.zeros(6))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        solve(p)


def test_unclamped_solution_matches_exactly(rng):
    p = random_problem(rng, lambda0=1.0, lambda1=1.0)  # heavy penalties keep u small
    sol = solve(p)
    assert not sol.clamped.any()
    assert np.array_equal(sol.u_star, sol.u_unconstrained)


def test_clamping_flags_and_limits():
    b = np.vstack([np.eye(4) * 0.01, np.zeros((2, 4))])
    p = AllocationProblem(
        a=np.zeros(6), b=b,
        y_target=np.array([50.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        lambda0=0.0, lambda1=1e-6,
    )
    sol = solve(p)
    assert sol.clamped[0] and not sol.clamped[1:].any()
    assert sol.u_star[0] == 25.0
    assert abs(sol.u_unconstrained[0]) > 25.0
    assert np.max(np.abs(sol.u_star)) <= 25.0


def test_solution_reports_unconstrained_metrics():
    # the clamp moves u_star off the minimizer; u_unconstrained keeps it
    b = np.vstack([np.eye(4) * 0.01, np.zeros((2, 4))])
    p = AllocationProblem(a=np.zeros(6), b=b, y_target=np.array([50.0, 0, 0, 0, 0, 0]),
                          lambda0=0.0, lambda1=1e-6)
    sol = solve(p)
    assert sol.clamped[0]
    assert objective(p, sol.u_unconstrained) < objective(p, sol.u_star)
    assert np.linalg.norm(p.y_target - p.a - p.b @ sol.u_unconstrained) < 1.0
    assert np.linalg.norm(p.y_target - p.a - p.b @ sol.u_star) > 49.0


def test_tracking_config_validation():
    with pytest.raises(ValueError):
        TrackingConfig(lambda0=0.0, lambda1=0.0)
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt"):
            TrackingConfig(dt=dt)


@pytest.mark.parametrize("name", ["u_trim", "u_init"])
@pytest.mark.parametrize("value", [
    np.zeros(3), np.zeros((1, 4)), [0.0, np.nan, 0.0, 0.0], [0.0, 0.0, np.inf, 0.0],
    [25.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -30.0],
])
def test_tracking_config_rejects_bad_commands(name, value):
    with pytest.raises(ValueError, match=name):
        TrackingConfig(**{name: value})


def test_tracking_config_stores_commands_as_float_arrays():
    cfg = TrackingConfig(u_trim=[25, 0, -25, 1], u_init=(0, 0, 0, 2))
    for u in (cfg.u_trim, cfg.u_init):
        assert isinstance(u, np.ndarray) and u.dtype == float and u.shape == (4,)
    assert cfg.u_trim.tolist() == [25.0, 0.0, -25.0, 1.0]


def test_track_sequence_matches_manual_iteration(rng):
    a_vec = np.array([0.1, -0.2, 0.05, 0.0, 0.02, -0.01])
    b_mat = np.vstack([np.eye(4) * 0.4, np.ones((2, 4)) * 0.05])
    model = constant_model(a_vec, b_mat)
    targets = rng.normal(scale=2.0, size=(12, 6))
    cfg = TrackingConfig(lambda0=0.02, lambda1=0.2)
    tlog = track_sequence(model, targets, lambda k, u: np.zeros(13), cfg)

    u_prev = np.zeros(4)
    for k in range(12):
        p = AllocationProblem(
            a_vec, b_mat, targets[k], u_prev=u_prev, u_trim=np.zeros(4),
            lambda0=0.02, lambda1=0.2,
        )
        u_prev = solve(p).u_star
        assert np.array_equal(tlog.controls[k], u_prev)
        assert np.allclose(tlog.predicted[k], a_vec + b_mat @ u_prev)
    # no plant callback: achieved repeats predicted
    assert np.array_equal(tlog.achieved, tlog.predicted)
    assert np.allclose(tlog.t, np.arange(12) * cfg.dt)


def test_track_sequence_callable_observations_thread_commands():
    model = constant_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))
    observed, applied = [], []

    def obs_fn(k, u_prev):
        observed.append(u_prev.copy())
        return np.zeros(13)

    def plant(k, u):
        applied.append(u.copy())
        return np.zeros(6)

    targets = np.tile(np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0]), (4, 1))
    cfg = TrackingConfig(u_init=[1.0, 2.0, 3.0, 4.0])
    tlog = track_sequence(model, targets, obs_fn, cfg, achieved_fn=plant)
    for u in observed + applied:
        assert isinstance(u, np.ndarray) and u.dtype == float and u.shape == (4,)
    # step k observes the command applied at step k-1, and the plant sees step k's
    assert np.array_equal(observed[0], [1.0, 2.0, 3.0, 4.0])
    for k in range(4):
        assert np.array_equal(applied[k], tlog.controls[k])
        if k:
            assert np.array_equal(observed[k], tlog.controls[k - 1])


def test_track_sequence_uses_achieved_fn():
    model = constant_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))
    targets = np.zeros((3, 6))

    def plant(k, u):
        return [float(k), 0.0, 0.0, 0.0, 0.0, 0.0]

    tlog = track_sequence(model, targets, lambda k, u: np.zeros(13), TrackingConfig(),
                          achieved_fn=plant)
    assert np.array_equal(tlog.achieved[:, 0], [0.0, 1.0, 2.0])
    assert tlog.tracking_rmse() == pytest.approx(np.sqrt(np.mean(tlog.achieved ** 2)))


def test_track_sequence_names_step_of_non_finite_model_output():
    model = constant_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))
    obs = [np.zeros(13)] * 5
    obs[3] = np.full(13, np.nan)  # the zero-weight backbone passes NaN through
    with pytest.raises(ArithmeticError, match="non-finite model output at step 3"):
        track_sequence(model, np.zeros((5, 6)), lambda k, u: obs[k], TrackingConfig())


def test_track_sequence_validates_targets_and_config():
    model = constant_model(np.zeros(6), np.zeros((6, 4)))
    targets = np.zeros((3, 6))
    targets[1, 2] = np.inf
    with pytest.raises(ValueError, match="targets must be finite"):
        track_sequence(model, targets, lambda k, u: np.zeros(13), TrackingConfig())
    # the configuration is checked at construction and cannot be changed after it
    cfg = TrackingConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lambda1 = 0.0
    assert cfg.lambda1 == 0.1
    with pytest.raises(NotStrictlyConvexError):
        dataclasses.replace(cfg, lambda0=0.0, lambda1=0.0)


def test_track_sequence_rejects_unknown_model():
    with pytest.raises(TypeError):
        track_sequence(object(), np.zeros((1, 6)), lambda k, u: np.zeros(13), TrackingConfig())


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
        model, rng.normal(size=(6, 6)), lambda k, u: np.zeros(13), TrackingConfig()
    )
    path = tmp_path / "track.csv"
    save_tracking_csv(path, tlog)
    loaded = read_table(path, TRACKING_CSV_HEADER)
    written = np.column_stack([tlog.t, tlog.targets, tlog.predicted, tlog.achieved,
                               tlog.controls, tlog.clamped])
    assert np.array_equal(loaded, written)


def test_tracking_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x\n0,1\n")
    with pytest.raises(ValueError):
        read_table(path, TRACKING_CSV_HEADER)
