"""The three benchmark workloads, driven through aeroalloc's public API.

Every workload is a closed loop with one caller. ``setup`` builds what the
timed section needs and ``run`` executes the timed section once into a fresh
directory, returning an :class:`Outcome`: the quality metrics, the values
that make up the output fingerprint, and the result of the output checks.

Module functions are always reached as ``module.function`` so that the
tracer's wrappers, which replace module attributes, see every call.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aeroalloc import allocator, dynamics, harness, plant, probe

CONTROL_LIMIT_DEG = 25.0
DT = 0.02  # default time step of plant protocols and of tracking runs

# closed_loop: the configuration of acceptance check C7.
LOOP_TRAIN_SPEEDS = (10.0, 12.0)
LOOP_VARIANTS = ("affine_sym", "unstructured")
LOOP_SPEED = 13.5
LOOP_RUN_SEED = 40
DAMPING_SWEEP = (0.02, 0.1, 0.5)

# sensing: the grid points acceptance check C3 holds out of calibration.
HELD_OUT_GRID = (
    (8.0, -5.0, 5.0), (8.0, 5.0, 0.0), (10.0, 5.0, -5.0),
    (10.0, -5.0, 0.0), (12.0, 0.0, 5.0), (12.0, 5.0, 5.0),
)
GRID_REPEATS = 24
EXCITATION = {"kind": "dynamics", "name": "sense_va10", "speed": 10.0, "stage": "I",
              "duration_s": 120.0, "gust": {"mode": "shedding", "amplitude": 0.4}}
# Acceptance check C3 limits; the default grid beats them by more than 10x.
CALIB_ANGLE_MAX_DEG = 1.0
CALIB_VA_MAX_PCT = 3.0


@dataclass
class Outcome:
    quality: dict = field(default_factory=dict)      # name -> (value, unit)
    fingerprint: dict = field(default_factory=dict)  # exact output values
    problems: list = field(default_factory=list)     # failed output checks
    step_s: np.ndarray = field(default_factory=lambda: np.empty(0))


def _check(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _finite(problems: list, what: str, *arrays) -> None:
    for arr in arrays:
        _check(problems, bool(np.all(np.isfinite(np.asarray(arr, dtype=float)))),
               f"{what} has non-finite values")


def _data_rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class StepClock:
    """One ``perf_counter`` stamp per closed-loop step, and nothing else.

    The step boundary is the plant observation read at the start of each
    step; the stamp is taken at whatever ``plant.make_observation`` is bound
    to, so it can sit outside the tracer's wrapper.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self._original = None

    def __enter__(self) -> "StepClock":
        self._original = original = plant.make_observation
        stamps, clock = self.stamps, time.perf_counter

        def stamped(*args, **kwargs):
            stamps.append(clock())
            return original(*args, **kwargs)

        plant.make_observation = stamped
        return self

    def __exit__(self, *exc) -> None:
        self.stamps.append(time.perf_counter())
        plant.make_observation = self._original


class Suite:
    """One default five-variant ablation suite; no allocator, no probe."""

    name = "suite"
    attempted = len(harness.VARIANTS)  # trainings

    def __init__(self, seed: int, epochs: int | None = None, duration_s: float | None = None):
        self.seed = seed
        self.params = plant.PlantParams()
        self.cfg = harness.ExperimentConfig(seed=seed)
        if epochs is not None:
            self.cfg.epochs = epochs
        if duration_s is not None:
            self.cfg.duration_s = duration_s
        self.rows = int(round(self.cfg.duration_s / DT))

    def setup(self, workdir: Path) -> None:
        pass

    def run(self, workdir: Path) -> Outcome:
        out = Outcome()
        report = harness.run_ablation_suite(self.cfg, workdir, self.params)
        self._score(report, workdir, out)
        return out

    def _score(self, report, workdir: Path, out: Outcome) -> None:
        p = out.problems
        _check(p, sorted(report.variants) == sorted(harness.VARIANTS), "variants missing")
        _check(p, len(report.split_hash) == 64, "split hash malformed")
        files = sorted((workdir / "datasets").glob("dyn_*.csv"))
        files = [f for f in files if not f.name.endswith("_conditions.csv")]
        _check(p, len(files) == 3, f"expected 3 dynamics datasets, found {len(files)}")
        for f in files:
            data = _data_rows(f)
            _check(p, data.shape == (self.rows, 23), f"{f.name} has shape {data.shape}")
            _finite(p, f.name, data)
        for variant, entry in report.variants.items():
            values = list(entry["rmse"].values()) + list(entry["inflation_pct"].values())
            values += entry["per_channel_in_dist"]
            _finite(p, variant, values)
            _check(p, all(v > 0 for v in entry["rmse"].values()), f"{variant} rmse not positive")
        sym, aff = (report.variants[v] for v in ("affine_sym", "affine"))
        out.quality = {
            "rmse_in_dist": (sym["rmse"]["in_dist"], "N"),
            "inflation_pct_va14": (sym["inflation_pct"]["va14"], "%"),
            "sym_residual_ratio": (sym["sym_residual"] / aff["sym_residual"], "ratio"),
        }
        out.fingerprint = {
            "split_hash": report.split_hash,
            "rmse": {v: report.variants[v]["rmse"] for v in sorted(report.variants)},
        }


class ClosedLoop:
    """C7: two models trained at 10 and 12 m/s flown at 13.5 m/s over a damping sweep."""

    name = "closed_loop"
    attempted = len(LOOP_VARIANTS) * len(DAMPING_SWEEP)  # loops

    def __init__(self, seed: int, epochs: int | None = None, duration_s: float | None = None):
        self.seed = seed
        self.params = plant.PlantParams()
        self.cfg = harness.ExperimentConfig(seed=seed, train_speeds=LOOP_TRAIN_SPEEDS)
        if epochs is not None:
            self.cfg.epochs = epochs
        if duration_s is not None:
            self.cfg.duration_s = duration_s
        self.models = {}

    @property
    def steps(self) -> int:
        return int(round(self.cfg.duration_s / DT))

    def setup(self, workdir: Path) -> None:
        sets = harness.generate_speed_datasets(self.cfg, self.cfg.train_speeds, self.params,
                                               workdir / "datasets")
        full = tuple(np.concatenate([sets[s][i] for s in self.cfg.train_speeds])
                     for i in range(3))
        split, _ = dynamics.block_split(full, self.cfg.holdout_fraction)
        self.models = {v: harness.train_variant(v, split, self.cfg) for v in LOOP_VARIANTS}

    def run(self, workdir: Path, step_clock: bool = True) -> Outcome:
        out = Outcome()
        logs, steps = {}, []
        for variant in LOOP_VARIANTS:
            for lam1 in DAMPING_SWEEP:
                tracking = allocator.TrackingConfig(lambda0=self.cfg.lambda0, lambda1=lam1)
                if step_clock:
                    with StepClock() as clock:
                        logs[(variant, lam1)] = self._fly(variant, tracking)
                    steps.append(np.diff(clock.stamps))
                else:
                    logs[(variant, lam1)] = self._fly(variant, tracking)
        out.step_s = np.concatenate(steps) if steps else np.empty(0)
        self._score(logs, out)
        return out

    def _fly(self, variant: str, tracking):
        return harness.closed_loop_run(self.models[variant], self.cfg, LOOP_SPEED,
                                       tracking=tracking, params=self.params,
                                       seed=LOOP_RUN_SEED)

    def _score(self, logs: dict, out: Outcome) -> None:
        p = out.problems
        rmssd, rmse, clamped = {}, {}, {}
        for (variant, lam1), tlog in logs.items():
            key = f"{variant}/lambda1={lam1:g}"
            _check(p, tlog.controls.shape == (self.steps, 4), f"{key} has {tlog.controls.shape}")
            _finite(p, key, tlog.targets, tlog.predicted, tlog.achieved, tlog.controls)
            _check(p, bool(np.all(np.abs(tlog.controls) <= CONTROL_LIMIT_DEG)),
                   f"{key} applied a command beyond +-{CONTROL_LIMIT_DEG:g} deg")
            rmssd[key] = harness.rmssd(tlog.controls)[1]
            rmse[key] = tlog.tracking_rmse()
            clamped[key] = float(np.mean(tlog.clamped))
        out.quality = {
            "tracking_rmse": (float(np.mean(list(rmse.values()))), "N"),
            "rmssd_avg": (float(np.mean(list(rmssd.values()))), "deg"),
        }
        default = harness.ExperimentConfig().lambda1
        out.fingerprint = {
            "rmssd": rmssd,
            "tracking_rmse": rmse,
            "c7_rmssd_pair": [rmssd[f"{v}/lambda1={default:g}"] for v in LOOP_VARIANTS],
        }


class Sensing:
    """The probe chain: grid data, two calibration nets, one excitation run through them."""

    name = "sensing"
    attempted = 2 + 1 + 2 * len(HELD_OUT_GRID)  # fits, excitation run, flow estimates

    def __init__(self, seed: int, epochs: int | None = None, duration_s: float | None = None):
        self.seed = seed
        self.params = plant.PlantParams()
        self.calib_cfg = probe.CalibrationTrainConfig(seed=seed)
        if epochs is not None:
            self.calib_cfg.epochs = epochs
        self.protocol = dict(EXCITATION)
        if duration_s is not None:
            self.protocol["duration_s"] = duration_s
        self.grid = {"kind": "calibration", "name": "grid", "repeats": GRID_REPEATS,
                     "exclude_points": [list(pt) for pt in HELD_OUT_GRID]}

    def setup(self, workdir: Path) -> None:
        pass

    def run(self, workdir: Path) -> Outcome:
        out = Outcome()
        paths = plant.generate_dataset(self.grid, self.params, self.seed, workdir)
        rows = [probe.load_calibration_csv(path) for path in paths]
        nets = [probe.train_calibration(probe_rows, self.calib_cfg) for probe_rows in rows]
        excitation = plant.generate_dataset(self.protocol, self.params, self.seed, workdir,
                                            probe_models=nets)
        errors = []
        for net in nets:
            for va, alpha, beta in HELD_OUT_GRID:
                taps = plant.probe_pressures(probe.FlowState(va, alpha, beta), self.params)
                est = probe.estimate_flow(net, taps)
                errors.append((est.alpha_deg - alpha, est.beta_deg - beta, (est.va - va) / va))
        self._score(rows, excitation[0], np.asarray(errors), out)
        return out

    def _score(self, rows, excitation: Path, errors: np.ndarray, out: Outcome) -> None:
        p = out.problems
        n_grid = 3 * 5 * 5 - len(HELD_OUT_GRID)
        for probe_rows in rows:
            _check(p, len(probe_rows) == n_grid * GRID_REPEATS,
                   f"calibration rows {len(probe_rows)}, expected {n_grid * GRID_REPEATS}")
            _finite(p, "calibration taps", [r[0].p for r in probe_rows])
        data = _data_rows(excitation)
        n_steps = int(round(self.protocol["duration_s"] / DT))
        _check(p, data.shape == (n_steps, 23), f"excitation run has shape {data.shape}")
        _finite(p, "excitation run", data)
        _check(p, bool(np.all(np.abs(data[:, 13:17]) <= CONTROL_LIMIT_DEG)),
               "excitation command beyond the actuator limit")
        _finite(p, "held-out estimates", errors)
        angle = float(np.sqrt(np.mean(errors[:, :2] ** 2)))
        va_pct = float(100.0 * np.sqrt(np.mean(errors[:, 2] ** 2)))
        out.quality = {
            "calib_angle_rmse_deg": (angle, "deg"),
            "calib_va_rmse_pct": (va_pct, "%"),
        }
        out.fingerprint = {
            "held_out_errors": errors.tolist(),
            "excitation_sum": float(data.sum()),
        }


def check_calibration_limits(out: Outcome) -> None:
    """Full-size sensing runs must stay inside the C3 accuracy limits."""
    angle = out.quality["calib_angle_rmse_deg"][0]
    va_pct = out.quality["calib_va_rmse_pct"][0]
    _check(out.problems, angle < CALIB_ANGLE_MAX_DEG,
           f"held-out angle rmse {angle:.3f} deg >= {CALIB_ANGLE_MAX_DEG:g}")
    _check(out.problems, va_pct < CALIB_VA_MAX_PCT,
           f"held-out airspeed rmse {va_pct:.2f}% >= {CALIB_VA_MAX_PCT:g}%")


WORKLOADS = {cls.name: cls for cls in (Suite, ClosedLoop, Sensing)}
