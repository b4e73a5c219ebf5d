"""Allocation QP: normal equations, solver optimality, clamping, tracking loop."""
import dataclasses
import os
import sys
import threading
from types import SimpleNamespace

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

from conftest import (
    constant_affine_model as constant_model,
    finite_difference_grads,
    unstructured_model,
)


def random_problem(rng, lambda0=0.01, lambda1=0.1):
    return AllocationProblem(
        a=rng.normal(size=6),
        b=rng.normal(size=(6, 4)),
        y_target=rng.normal(size=6),
        u_prev=rng.normal(size=4),
        cfg=TrackingConfig(lambda0=lambda0, lambda1=lambda1, u_trim=rng.normal(size=4)),
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
        cfg=TrackingConfig(lambda0=0.5, lambda1=0.25),
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


def test_penalty_terms_have_one_owner(rng, monkeypatch):
    # a TrackingConfig forms (lambda0 + lambda1) I and lambda0 u_trim once, when made;
    # the loop's per-step problems hold the run's config itself, and a checked problem
    # and a replace of one onto that config give the same normal equations
    trim = rng.uniform(-5.0, 5.0, size=4)
    cfg = TrackingConfig(lambda0=0.03, lambda1=0.7, u_trim=trim)
    seen = []
    monkeypatch.setattr(allocator, "solve", lambda p: seen.append(p) or solve(p))
    track_sequence(constant_model(rng.normal(size=6), rng.normal(size=(6, 4))),
                   rng.normal(size=(2, 6)), lambda k, u: np.zeros(13), cfg,
                   achieved_fn=lambda k, u: np.zeros(6))
    assert [p.cfg is cfg for p in seen] == [True, True]
    looped = seen[0]
    parts = dict(a=looped.a, b=looped.b, y_target=looped.y_target)
    checked = AllocationProblem(**parts, cfg=cfg)
    replaced = dataclasses.replace(
        AllocationProblem(**parts, cfg=TrackingConfig(lambda0=0.5, lambda1=0.0)), cfg=cfg)
    expected = [x.tobytes() for x in build_normal_equations(checked)]
    for p in (replaced, looped):
        assert [x.tobytes() for x in build_normal_equations(p)] == expected
    assert cfg._q_penalty.tobytes() == ((0.03 + 0.7) * np.eye(4)).tobytes()
    assert cfg._c_trim.tobytes() == (0.03 * cfg.u_trim).tobytes()
    # a replace of the config forms the terms of its own values
    moved = dataclasses.replace(cfg, lambda0=0.5)
    assert moved._q_penalty.tobytes() == ((0.5 + 0.7) * np.eye(4)).tobytes()
    assert moved._c_trim.tobytes() == (0.5 * cfg.u_trim).tobytes()


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
        u_prev=u_prev, cfg=TrackingConfig(lambda0=0.3, lambda1=0.7, u_trim=u_trim),
    )
    expected = 0.7 * u_prev + 0.3 * u_trim
    assert np.allclose(solve(p).u_unconstrained, expected)


def test_large_smoothness_pins_previous_command(rng):
    u_prev = np.array([3.0, -2.0, 1.0, 0.5])
    p = AllocationProblem(
        a=np.zeros(6), b=rng.normal(size=(6, 4)), y_target=rng.normal(size=6) * 10,
        u_prev=u_prev, cfg=TrackingConfig(lambda0=0.0, lambda1=1e8),
    )
    assert np.allclose(solve(p).u_unconstrained, u_prev, atol=1e-4)


def test_zero_penalties_rejected():
    with pytest.raises(NotStrictlyConvexError):
        AllocationProblem(
            a=np.zeros(6), b=np.zeros((6, 4)), y_target=np.zeros(6),
            cfg=TrackingConfig(lambda0=0.0, lambda1=0.0),
        )
    assert issubclass(NotStrictlyConvexError, ValueError)


def test_negative_penalty_rejected():
    with pytest.raises(ValueError):
        AllocationProblem(
            a=np.zeros(6), b=np.zeros((6, 4)), y_target=np.zeros(6),
            cfg=TrackingConfig(lambda0=-0.1),
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
        cfg = TrackingConfig(u_trim=parts.pop("u_trim"))
        AllocationProblem(b=np.zeros((6, 4)), cfg=cfg, **parts)


@pytest.mark.parametrize("cfg", [None, {"lambda0": 0.01, "lambda1": 0.1},
                                 dynamics.DynamicsTrainConfig()],
                         ids=["none", "dict", "another_config"])
def test_problem_takes_only_a_tracking_config(cfg):
    # the penalties and trim reach a problem only through the config that checked them
    with pytest.raises(TypeError, match="cfg must be a TrackingConfig"):
        AllocationProblem(a=np.zeros(6), b=np.zeros((6, 4)), y_target=np.zeros(6), cfg=cfg)


SATURATED = AllocationProblem(
    a=np.zeros(6), b=np.vstack([np.eye(4) * 0.01, np.zeros((2, 4))]),
    y_target=np.array([50.0, -50.0, 0.0, 0.0, 1.0, 2.0]),
    cfg=TrackingConfig(lambda0=0.0, lambda1=1e-6),
)


def reference_problems(rng):
    """200 random problems, a third of them clamping, then SATURATED."""
    penalties = [(rng.uniform(0, 1), rng.uniform(1e-3, 1)) for _ in range(150)]
    penalties += [(0.0, rng.uniform(1e-3, 1)) for _ in range(25)]
    penalties += [(rng.uniform(1e-3, 1), 0.0) for _ in range(25)]
    problems = [random_problem(rng, lambda0, lambda1) for lambda0, lambda1 in penalties]
    for i in range(0, len(problems), 3):  # weak surfaces, a large target and light penalties
        p = problems[i]
        cfg = dataclasses.replace(p.cfg, lambda0=1e-3 * p.cfg.lambda0,
                                  lambda1=1e-3 * p.cfg.lambda1)
        problems[i] = dataclasses.replace(p, b=0.05 * p.b, y_target=20.0 * p.y_target, cfg=cfg)
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
    sol = solve(AllocationProblem(np.zeros(6), b_eye, y,
                                  cfg=TrackingConfig(lambda0=0.0, lambda1=1e-300)))
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


def test_the_fallback_names_the_scipy_extra_where_scipy_is_missing(monkeypatch):
    monkeypatch.setattr(allocator, "numpy_blas_function", lambda name: None)
    monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)  # blocks its import
    allocator._posv.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"pip install 'aeroalloc\[scipy\]'$"):
            solve(SATURATED)
    finally:
        allocator._posv.cache_clear()


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


# NaN, +-inf, +-0.0, +-1e308 and subnormals, the entries a finiteness count can get wrong
EDGE_FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324]),
    st.floats(-1e-308, 1e-308),  # within the smallest normal float, mostly subnormals
)


@given(data=st.data(), shape=st.sampled_from([(0,), (4,), (6,), (4, 4), (6, 4)]))
@settings(max_examples=300, deadline=None)
def test_all_finite_equals_numpys_reduction(data, shape):
    x = np.array(data.draw(st.lists(EDGE_FLOATS, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape)))), dtype=float).reshape(shape)
    with np.errstate(all="raise"):
        assert allocator._all_finite(x) == bool(np.isfinite(x).all())


def test_solve_clamps_with_the_bits_of_clip(monkeypatch):
    # NaN stays NaN, +-inf goes to the limits and -0.0 keeps its sign, as with ndarray.clip
    for u in ([np.nan, np.inf, -np.inf, -0.0], [30.0, -30.0, 0.0, 25.0]):
        u = np.array(u)
        monkeypatch.setattr(allocator, "_posv", lambda: lambda q, c: (u.copy(), 0))
        sol = solve(AllocationProblem(a=np.zeros(6), b=np.zeros((6, 4)), y_target=np.zeros(6)))
        assert sol.u_star.tobytes() == u.clip(-25.0, 25.0).tobytes()
        assert sol.u_unconstrained.tobytes() == u.tobytes()


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
        cfg=TrackingConfig(lambda0=0.0, lambda1=1e-6),
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
                          cfg=TrackingConfig(lambda0=0.0, lambda1=1e-6))
    sol = solve(p)
    assert sol.clamped[0]
    assert objective(p, sol.u_unconstrained) < objective(p, sol.u_star)
    assert np.linalg.norm(p.y_target - p.a - p.b @ sol.u_unconstrained) < 1.0
    assert np.linalg.norm(p.y_target - p.a - p.b @ sol.u_star) > 49.0


def test_tracking_config_validation():
    with pytest.raises(ValueError):
        TrackingConfig(lambda0=0.0, lambda1=0.0)
    for bad in (np.nan, np.inf, -1.0):
        for name in ("lambda0", "lambda1"):
            with pytest.raises(ValueError, match="penalty weights must be finite and >= 0"):
                TrackingConfig(**{name: bad})


@pytest.mark.parametrize("name", ["u_trim"])
@pytest.mark.parametrize("value", [
    np.zeros(3), np.zeros((1, 4)), [0.0, np.nan, 0.0, 0.0], [0.0, 0.0, np.inf, 0.0],
    [25.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -30.0],
])
def test_tracking_config_rejects_bad_commands(name, value):
    with pytest.raises(ValueError, match=name):
        TrackingConfig(**{name: value})


def test_tracking_config_stores_commands_as_float_arrays():
    cfg = TrackingConfig(u_trim=[25, 0, -25, 1])
    u = cfg.u_trim
    assert isinstance(u, np.ndarray) and u.dtype == float and u.shape == (4,)
    assert u.tolist() == [25.0, 0.0, -25.0, 1.0]


def test_track_sequence_matches_manual_iteration(rng):
    a_vec = np.array([0.1, -0.2, 0.05, 0.0, 0.02, -0.01])
    b_mat = np.vstack([np.eye(4) * 0.4, np.ones((2, 4)) * 0.05])
    model = constant_model(a_vec, b_mat)
    targets = rng.normal(scale=2.0, size=(12, 6))
    cfg = TrackingConfig(lambda0=0.02, lambda1=0.2)
    steps = []

    def plant(k, u):
        steps.append(k)
        return np.full(6, float(k))

    tlog = track_sequence(model, targets, lambda k, u: np.zeros(13), cfg, achieved_fn=plant)

    u_prev = np.zeros(4)
    for k in range(12):
        p = AllocationProblem(
            a_vec, b_mat, targets[k], u_prev=u_prev,
            cfg=TrackingConfig(lambda0=0.02, lambda1=0.2, u_trim=np.zeros(4)),
        )
        u_prev = solve(p).u_star
        assert np.array_equal(tlog.controls[k], u_prev)
        assert np.allclose(tlog.predicted[k], a_vec + b_mat @ u_prev)
    assert steps == list(range(12))
    assert np.array_equal(tlog.achieved, np.repeat(np.arange(12.0)[:, None], 6, axis=1))
    assert np.allclose(tlog.t, np.arange(12) * allocator.DT)


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
    tlog = track_sequence(model, targets, obs_fn, TrackingConfig(), achieved_fn=plant)
    for u in observed + applied:
        assert isinstance(u, np.ndarray) and u.dtype == float and u.shape == (4,)
    # step k observes the command applied at step k-1, step 0 the zero command,
    # and the plant sees step k's
    assert np.array_equal(observed[0], np.zeros(4))
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
        track_sequence(model, np.zeros((5, 6)), lambda k, u: obs[k], TrackingConfig(),
                       achieved_fn=lambda k, u: np.zeros(6))


def test_track_sequence_validates_targets_and_config():
    model = constant_model(np.zeros(6), np.zeros((6, 4)))
    targets = np.zeros((3, 6))
    targets[1, 2] = np.inf
    with pytest.raises(ValueError, match="targets must be finite"):
        track_sequence(model, targets, lambda k, u: np.zeros(13), TrackingConfig(),
                       achieved_fn=lambda k, u: np.zeros(6))
    # the configuration is checked at construction and cannot be changed after it
    cfg = TrackingConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lambda1 = 0.0
    assert cfg.lambda1 == 0.1
    with pytest.raises(NotStrictlyConvexError):
        dataclasses.replace(cfg, lambda0=0.0, lambda1=0.0)


def test_track_sequence_rejects_an_empty_target_sequence():
    model = constant_model(np.zeros(6), np.zeros((6, 4)))
    with pytest.raises(ValueError, match="at least one row, got 0"):
        track_sequence(model, np.zeros((0, 6)), lambda k, u: np.zeros(13), TrackingConfig(),
                       achieved_fn=lambda k, u: np.zeros(6))


def test_track_sequence_rejects_a_config_that_is_not_a_tracking_config():
    # the problem's config check, run once before the first observation
    observed = []
    model = constant_model(np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))]))
    cfg = SimpleNamespace(lambda0=0.01, lambda1=0.1, u_trim=np.zeros(4))
    with pytest.raises(TypeError, match="cfg must be a TrackingConfig, got SimpleNamespace"):
        track_sequence(model, np.zeros((2, 6)), lambda k, u: observed.append(k) or np.zeros(13),
                       cfg, achieved_fn=lambda k, u: np.zeros(6))
    assert observed == []


def test_checked_commands_cannot_change_after_their_check():
    # a config and a problem keep read-only copies, and the config its terms read-only:
    # the caller's later write does not reach them, and a write through them fails
    u = np.array([1.0, 2.0, 3.0, 4.0])
    cfg = TrackingConfig(lambda0=0.5, u_trim=u)
    parts = {"a": np.zeros(6), "b": np.zeros((6, 4)), "y_target": np.zeros(6),
             "u_prev": np.zeros(4)}
    p = AllocationProblem(**parts, cfg=cfg)
    for value in [*parts.values(), u]:
        value[...] = np.nan
    assert p.cfg is cfg and cfg.u_trim.tolist() == [1.0, 2.0, 3.0, 4.0]
    for name in parts:
        held = getattr(p, name)
        assert np.isfinite(held).all()
        with pytest.raises(ValueError, match="read-only"):
            held[0] = np.nan
    for held in (cfg.u_trim, cfg._q_penalty, cfg._c_trim, cfg._c_smooth):
        with pytest.raises(ValueError, match="read-only"):
            held[1] = np.nan
    assert cfg.u_trim.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert cfg._c_trim.tolist() == [0.5, 1.0, 1.5, 2.0]


def test_track_sequence_rejects_unknown_model():
    with pytest.raises(TypeError):
        track_sequence(object(), np.zeros((1, 6)), lambda k, u: np.zeros(13), TrackingConfig(),
                       achieved_fn=lambda k, u: np.zeros(6))


def test_track_sequence_picks_each_step_pass_by_the_familys_affine_flag(monkeypatch):
    # predict for a family whose wrench is affine in the command, else affine_at at u_prev;
    # a family registered in MODEL_KINDS is flown with no edit to the allocator
    calls = []
    terms = np.zeros(6), np.vstack([np.eye(4), np.zeros((2, 4))])
    monkeypatch.setattr(allocator, "predict", lambda m, o: calls.append("predict") or terms)
    monkeypatch.setattr(allocator, "affine_at",
                        lambda m, o, u: calls.append("affine_at") or terms)

    class ThirdFamily:
        kind, affine_in_u = "third", True

    monkeypatch.setitem(dynamics.MODEL_KINDS, ThirdFamily.kind, ThirdFamily)
    models = [constant_model(*terms), unstructured_model(), ThirdFamily()]
    for model in models:
        track_sequence(model, np.zeros((2, 6)), lambda k, u: np.zeros(13), TrackingConfig(),
                       achieved_fn=lambda k, u: np.zeros(6))
    assert calls == ["predict"] * 2 + ["affine_at"] * 2 + ["predict"] * 2
    assert [type(m).affine_in_u for m in models] == [True, False, True]


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
    tlog = track_sequence(model, rng.normal(size=(6, 6)), lambda k, u: np.zeros(13),
                          TrackingConfig(), achieved_fn=lambda k, u: rng.normal(size=6))
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
