"""End-to-end acceptance checks for the shipped package.

One test per shipping requirement. Each prints a single tagged pass/fail
line (bypassing capture) so a full run reads as a checklist, and then
asserts. Tolerances, protocols, and runtime budgets are pinned up top;
the heavyweight fixtures are shared across the tests that need them.
"""
import hashlib
import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from aeroalloc import cli, harness, nncore, plant, probe
from aeroalloc.allocator import AllocationProblem, TrackingConfig, build_normal_equations, solve
from aeroalloc.dynamics import (
    AffineModel,
    SymmetryConfig,
    block_split,
    model_flat_params,
    set_model_flat_params,
    training_gradients,
    training_loss,
)
from aeroalloc.harness import ExperimentConfig, closed_loop_run, rmssd
from aeroalloc.probe import FlowState

from conftest import finite_difference_grads, relative_error

# gradient check
GRAD_RTOL = 1e-4
GRAD_BUDGET_S = 60.0

# allocator equivalence
ALLOC_PROBLEMS = 100
ALLOC_ATOL = 1e-8
ALLOC_BUDGET_S = 10.0

# probe round trip and grid calibration
ROUND_TRIP_N = 1000
ROUND_TRIP_RTOL = 1e-12
ANGLE_RMSE_MAX_DEG = 1.0
VA_RMSE_MAX_FRAC = 0.03
CALIB_BUDGET_S = 300.0
HELD_OUT_GRID = (
    (8.0, -5.0, 5.0), (8.0, 5.0, 0.0), (10.0, 5.0, -5.0),
    (10.0, -5.0, 0.0), (12.0, 0.0, 5.0), (12.0, 5.0, 5.0),
)

# ablation suites (mirror penalty, wing sensors, airspeed shift)
SUITE_SEEDS = (0, 1, 2)
SYM_RATIO_MAX = 0.5
SUITE_BUDGET_S = 600.0
SHIFT_KEY = "va14"

# closed-loop smoothness at an extrapolated speed
EXTRAP_TRAIN_SPEEDS = (10.0, 12.0)
EXTRAP_LOOP_SPEED = 13.5
EXTRAP_RUN_SEED = 40
DAMPING_SWEEP = (0.02, 0.1, 0.5)


def _verdict(capsys, tag: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# shared heavyweight runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_suites(tmp_path_factory):
    """One full five-variant ablation suite per seed, default protocol."""
    t0 = time.perf_counter()
    params = plant.PlantParams()
    out = tmp_path_factory.mktemp("acc_suites")
    reports = {
        seed: harness.run_ablation_suite(ExperimentConfig(seed=seed), out / f"s{seed}", params)
        for seed in SUITE_SEEDS
    }
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def extrapolated_loops(tmp_path_factory):
    """Paired closed-loop runs above the training speeds, per training seed.

    Both variants see the identical run (same schedule, targets, and sensor
    noise stream), so the RMSSD difference isolates the model. The damping
    sweep flies the mirror-prior model on the same paired run, and its loop at
    the config's damping is the mirror-prior side of the margin.
    """
    params = plant.PlantParams()
    out = tmp_path_factory.mktemp("acc_loops")
    names = ("affine_sym", "unstructured")
    cfgs, splits, trainings = {}, {}, []
    for seed in SUITE_SEEDS:
        cfg = cfgs[seed] = ExperimentConfig(seed=seed, train_speeds=EXTRAP_TRAIN_SPEEDS)
        sets = harness.generate_speed_datasets(cfg, cfg.train_speeds, params, out / f"d{seed}")
        full = harness._concat_datasets([sets[s] for s in cfg.train_speeds])
        splits[seed], _ = block_split(full, cfg.holdout_fraction)
        trainings += [(seed, name) for name in names]
    jobs = [(name, splits[seed], cfgs[seed]) for seed, name in trainings]
    models = dict(zip(trainings, harness.run_jobs(harness.train_variant, jobs)))

    def loop_rmssd(seed, name, lam1):
        """Average RMSSD of one seeded loop; lam1 None flies the config's damping."""
        cfg = cfgs[seed]
        tracking = None if lam1 is None else TrackingConfig(lambda0=cfg.lambda0, lambda1=lam1)
        tlog = closed_loop_run(models[seed, name], cfg, EXTRAP_LOOP_SPEED, tracking=tracking,
                               params=params, seed=EXTRAP_RUN_SEED)
        return rmssd(tlog.controls)[1]

    loops = [(seed, "unstructured", None) for seed in SUITE_SEEDS]
    loops += [(seed, "affine_sym", lam1) for seed in SUITE_SEEDS for lam1 in DAMPING_SWEEP]
    flown = dict(zip(loops, harness.run_jobs(loop_rmssd, loops)))  # the 12 loops
    margins, sweeps = [], []
    for seed in SUITE_SEEDS:
        sweep = tuple(flown[seed, "affine_sym", lam1] for lam1 in DAMPING_SWEEP)
        sweeps.append(sweep)
        margins.append(flown[seed, "unstructured", None]
                       - sweep[DAMPING_SWEEP.index(cfgs[seed].lambda1)])
    return margins, sweeps


# ---------------------------------------------------------------------------
# 1. parameter gradients vs central finite differences
# ---------------------------------------------------------------------------


def _calibration_grad_error(case: int) -> float:
    widths = [(5, 8, 3), (5, 12, 3), (5, 8, 8, 3), (5, 6, 3), (5, 16, 3),
              (5, 10, 6, 3), (5, 4, 3), (5, 8, 4, 3), (5, 14, 3), (5, 6, 6, 3)][case]
    rng = np.random.default_rng(100 + case)
    net = nncore.init_network(widths, seed=200 + case)
    x = rng.normal(size=(12, 5))
    y = rng.normal(size=(12, 3))

    def loss_at(theta):
        nncore.set_flat_params(net, theta)
        return float(np.mean((nncore.forward(net, x) - y) ** 2))

    theta0 = nncore.flat_params(net).copy()
    acts = nncore.forward(net, x, activations=True)
    pred = acts[-1]
    grad = nncore.flat_grads(nncore.backward(net, (2.0 / pred.size) * (pred - y), acts))
    fd = finite_difference_grads(loss_at, theta0, h=1e-5)
    return relative_error(grad, fd)


def _wrench_grad_error(case: int) -> float:
    hidden = [(8,), (12,), (8, 8), (16,), (6, 6)][case % 5]
    wing = case % 2 == 0
    n_feat = 13 if wing else 6
    # small delta keeps some mirror residuals on the linear Huber branch
    sym = SymmetryConfig(lambda_sym=0.2 + 0.1 * case, delta=(0.05 if case % 3 else 0.5,) * 6)
    widths = (n_feat,) + hidden
    model = AffineModel(
        backbone=nncore.init_network(widths, seed=300 + case, output_activation="tanh"),
        a_head=nncore.init_network((hidden[-1], 6), seed=400 + case),
        b_head=nncore.init_network((hidden[-1], 24), seed=500 + case),
        obs_mean=np.zeros(n_feat),
        obs_std=np.ones(n_feat),
        sym=sym,
        wing_sensors=wing,
    )
    rng = np.random.default_rng(600 + case)
    obs = rng.normal(size=(12, 13))
    u = rng.uniform(-20.0, 20.0, size=(12, 4))
    y = rng.normal(size=(12, 6))
    theta0 = model_flat_params(model)

    def loss_at(theta):
        set_model_flat_params(model, theta)
        return training_loss(model, obs, u, y)

    _, grad = training_gradients(model, obs, u, y)
    fd = finite_difference_grads(loss_at, theta0, h=1e-5)
    return relative_error(grad, fd)


def test_training_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(10):
        worst = max(worst, _calibration_grad_error(case))
        worst = max(worst, _wrench_grad_error(case))
    elapsed = time.perf_counter() - t0
    ok = worst < GRAD_RTOL and elapsed < GRAD_BUDGET_S
    _verdict(
        capsys, "C1", ok,
        f"gradients on 20 models: max rel err {worst:.2e} "
        f"(limit {GRAD_RTOL:.0e}), {elapsed:.1f}s of {GRAD_BUDGET_S:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. closed-form allocation vs an iterative minimizer
# ---------------------------------------------------------------------------


def test_allocator_matches_iterative_minimizer(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    min_eig = np.inf
    for _ in range(ALLOC_PROBLEMS):
        b = rng.normal(scale=rng.uniform(0.2, 2.0), size=(6, 4))
        a = rng.normal(scale=5.0, size=6)
        u_prev = rng.uniform(-10.0, 10.0, size=4)
        u_trim = rng.uniform(-5.0, 5.0, size=4)
        lam0, lam1 = rng.uniform(0.05, 1.0, size=2)
        y = a + b @ rng.uniform(-10.0, 10.0, size=4) + rng.normal(scale=0.5, size=6)
        prob = AllocationProblem(a=a, b=b, y_target=y, u_prev=u_prev, u_trim=u_trim,
                                 lambda0=lam0, lambda1=lam1)

        # objective, gradient, and hessian written out from the raw formula
        def objective(u):
            r = y - a - b @ u
            return float(r @ r + lam1 * np.sum((u - u_prev) ** 2)
                         + lam0 * np.sum((u - u_trim) ** 2))

        def gradient(u):
            return (-2.0 * b.T @ (y - a - b @ u)
                    + 2.0 * lam1 * (u - u_prev) + 2.0 * lam0 * (u - u_trim))

        def hessian(_u):
            return 2.0 * (b.T @ b + (lam0 + lam1) * np.eye(4))

        ref = minimize(objective, np.zeros(4), jac=gradient, hess=hessian,
                       method="trust-exact", options={"gtol": 1e-12})
        sol = solve(prob)
        worst_gap = max(worst_gap, float(np.max(np.abs(ref.x - sol.u_unconstrained))))
        q, _ = build_normal_equations(prob)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(q).min()))
        assert np.array_equal(sol.u_star,
                              np.clip(sol.u_unconstrained, -25.0, 25.0))
    elapsed = time.perf_counter() - t0
    ok = worst_gap < ALLOC_ATOL and min_eig > 0.0 and elapsed < ALLOC_BUDGET_S
    _verdict(
        capsys, "C2", ok,
        f"{ALLOC_PROBLEMS} problems: max |u - reference| {worst_gap:.2e} "
        f"(limit {ALLOC_ATOL:.0e}), min eig {min_eig:.3f} > 0, "
        f"{elapsed:.1f}s of {ALLOC_BUDGET_S:.0f}s",
    )


# ---------------------------------------------------------------------------
# 3. airspeed round trip and grid calibration accuracy
# ---------------------------------------------------------------------------


def test_airspeed_round_trip_and_grid_calibration(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(ROUND_TRIP_N):
        va = rng.uniform(2.0, 30.0)
        rho = rng.uniform(0.9, 1.35)
        dp = rng.uniform(5.0, 900.0)
        cd = probe.dynamic_pressure_correction(va, dp, rho)
        back = probe.reconstruct_airspeed(cd, dp, rho)
        worst = max(worst, abs(back - va) / va)

    params = plant.PlantParams()
    proto = {"kind": "calibration", "name": "acc_grid",
             "exclude_points": [list(p) for p in HELD_OUT_GRID]}
    paths = plant.generate_calibration_data(proto, params, seed=0, out_dir=tmp_path)
    rows = probe.load_calibration_csv(paths[0])
    net = probe.train_calibration(rows, probe.CalibrationTrainConfig(seed=0))
    errs = []
    for va, alpha, beta in HELD_OUT_GRID:
        taps = plant.probe_pressures(FlowState(va, alpha, beta), params)
        est = probe.estimate_flow(net, taps)
        errs.append((est.alpha_deg - alpha, est.beta_deg - beta, (est.va - va) / va))
    errs = np.asarray(errs)
    rmse_a, rmse_b, rmse_v = np.sqrt(np.mean(errs**2, axis=0))
    elapsed = time.perf_counter() - t0
    ok = (worst < ROUND_TRIP_RTOL and rmse_a < ANGLE_RMSE_MAX_DEG
          and rmse_b < ANGLE_RMSE_MAX_DEG and rmse_v < VA_RMSE_MAX_FRAC
          and elapsed < CALIB_BUDGET_S)
    _verdict(
        capsys, "C3", ok,
        f"round trip max rel err {worst:.1e} (limit {ROUND_TRIP_RTOL:.0e}); "
        f"held-out grid alpha {rmse_a:.3f} deg, beta {rmse_b:.3f} deg "
        f"(limit {ANGLE_RMSE_MAX_DEG:.0f}), va {100 * rmse_v:.2f}% "
        f"(limit {100 * VA_RMSE_MAX_FRAC:.0f}%), {elapsed:.0f}s of {CALIB_BUDGET_S:.0f}s",
    )


# ---------------------------------------------------------------------------
# 4. mirror penalty shrinks the flaperon asymmetry residual
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_mirror_penalty_halves_flaperon_asymmetry(capsys, default_suites):
    reports, elapsed = default_suites
    ratios = {
        seed: rep.variants["affine_sym"]["sym_residual"] / rep.variants["affine"]["sym_residual"]
        for seed, rep in reports.items()
    }
    ok = all(r <= SYM_RATIO_MAX for r in ratios.values()) and elapsed < SUITE_BUDGET_S
    shown = " ".join(f"seed{s}:{r:.3f}" for s, r in ratios.items())
    _verdict(
        capsys, "C4", ok,
        f"penalized/unpenalized residual {shown} (limit {SYM_RATIO_MAX}), "
        f"suites took {elapsed:.0f}s of {SUITE_BUDGET_S:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. wing sensors reduce test error under gusts, both model families
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_wing_sensors_reduce_error_under_gusts(capsys, default_suites):
    reports, _ = default_suites
    gaps = []
    for seed, rep in reports.items():
        v = rep.variants
        gaps.append((
            seed,
            v["affine_no_ws"]["rmse"]["in_dist"] - v["affine"]["rmse"]["in_dist"],
            v["unstructured_no_ws"]["rmse"]["in_dist"] - v["unstructured"]["rmse"]["in_dist"],
        ))
    ok = all(ga > 0.0 and gu > 0.0 for _, ga, gu in gaps)
    shown = " ".join(f"seed{s}:(+{ga:.3f},+{gu:.3f})" if ga > 0 and gu > 0
                     else f"seed{s}:({ga:.3f},{gu:.3f})" for s, ga, gu in gaps)
    _verdict(
        capsys, "C5", ok,
        f"RMSE penalty for dropping wing taps (affine, unstructured) {shown}; "
        "sign-only, gusts active",
    )


# ---------------------------------------------------------------------------
# 6. structure limits error inflation under airspeed shift
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_structure_limits_airspeed_shift_inflation(capsys, default_suites):
    reports, _ = default_suites
    pairs = [
        (seed,
         rep.variants["affine_sym"]["inflation_pct"][SHIFT_KEY],
         rep.variants["unstructured"]["inflation_pct"][SHIFT_KEY])
        for seed, rep in reports.items()
    ]
    wins = sum(sym < unstr for _, sym, unstr in pairs)
    ok = wins * 2 >= len(pairs) + 1  # strict majority of the 3 seeds
    shown = " ".join(f"seed{s}:({sym:.0f}%,{unstr:.0f}%)" for s, sym, unstr in pairs)
    _verdict(
        capsys, "C6", ok,
        f"train 10 m/s test 14 m/s inflation (mirror-prior, unstructured) {shown}; "
        f"mirror-prior lower on {wins}/{len(pairs)} seeds",
    )


# ---------------------------------------------------------------------------
# 7. smoother commands at extrapolated speed; damping monotonicity
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_closed_loop_smoothness_and_damping(capsys, extrapolated_loops):
    margins, sweeps = extrapolated_loops
    wins = sum(m > 0.0 for m in margins)
    majority = wins * 2 >= len(margins) + 1
    monotone = all(s[0] > s[1] > s[2] for s in sweeps)
    ok = majority and monotone
    shown_m = " ".join(f"{m:+.3f}" for m in margins)
    shown_s = "; ".join(",".join(f"{v:.3f}" for v in s) for s in sweeps)
    _verdict(
        capsys, "C7", ok,
        f"RMSSD margin (unstructured - mirror-prior) per seed {shown_m} deg, "
        f"wins {wins}/{len(margins)}; RMSSD over damping {DAMPING_SWEEP}: {shown_s} "
        f"(strictly decreasing: {monotone})",
    )


# ---------------------------------------------------------------------------
# 8. CLI pipeline re-runs reproduce byte-identical artifacts
# ---------------------------------------------------------------------------


def test_cli_pipeline_rerun_is_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(harness.OUT_ROOT_ENV, raising=False)
    root = tmp_path / "run"
    dyn_proto = tmp_path / "dyn.json"
    dyn_proto.write_text(json.dumps({
        "kind": "dynamics", "name": "pipe", "speed": 10.0, "duration_s": 6.0,
        "gust": {"mode": "shedding", "amplitude": 0.4},
    }))
    cal_proto = tmp_path / "cal.json"
    cal_proto.write_text(json.dumps({"kind": "calibration", "name": "pipecal", "repeats": 2}))
    model_path = root / "models" / "affine_sym_seed2.json"

    def pipeline():
        for argv in (
            ["gen-data", "--protocol", str(dyn_proto), "--seed", "3", "--out", str(root)],
            ["gen-data", "--protocol", str(cal_proto), "--seed", "4", "--out", str(root)],
            ["train-calib", "--data", str(root / "datasets" / "pipecal_probe0.csv"),
             "--epochs", "40", "--seed", "1", "--out", str(root)],
            ["train-dyn", "--data", str(root / "datasets" / "pipe.csv"),
             "--variant", "affine_sym", "--epochs", "4", "--seed", "2", "--out", str(root)],
            ["eval", "--model", str(model_path),
             "--data", str(root / "datasets" / "pipe.csv"), "--out", str(root)],
            ["track", "--model", str(model_path), "--speed", "11.0",
             "--duration", "3.0", "--seed", "5", "--out", str(root)],
        ):
            assert cli.main(argv) == 0

    def snapshot():
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    pipeline()
    first = snapshot()
    pipeline()
    second = snapshot()
    changed = sorted(set(first) ^ set(second)) or [
        k for k in first if first[k] != second.get(k)
    ]
    ok = first == second and len(first) >= 8
    _verdict(
        capsys, "C8", ok,
        f"{len(first)} artifacts re-generated byte-identical across a full "
        f"gen/train/eval/track re-run" + ("" if ok else f"; differing: {changed}"),
    )
