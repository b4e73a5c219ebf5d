"""Experiment orchestration: variants, ablations, metrics, closed-loop runs.

The suite trains each variant of the `VARIANTS` table (a model family's
trainer, with or without the mirror prior and the seven wing-tap inputs) on
identical data and splits, and reports wrench RMSE per evaluation speed,
per-channel RMSE, inflation under airspeed shift, and flaperon mirror
residuals. Reports are written as JSON (for tooling), CSV (for plotting), and
an aligned text table. The trainings and the eval-set generations run as
independent jobs, dealt longest first over the usable CPUs (`run_jobs`), and
the caller scores the trained models; the results do not depend on how many
CPUs there are.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import logging
import os
import sys
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, plant as plant_mod, probe as probe_mod
from .allocator import DT, TrackingConfig, TrackingLog, track_sequence
from .blas import numpy_blas_function
from .dynamics import (
    CONTROL_DIM,
    DynamicsTrainConfig,
    SymmetryConfig,
    _check_holdout_fraction,
    _child_seeds,
    block_split,
    eval_rmse,
    load_dynamics_csv,
    per_channel_rmse,
    symmetry_residual_norm,
    train_dynamics,
    train_unstructured,
)
from .nncore import _as_batch, load_json
from .plant import PlantParams
from .table import write_table

log = logging.getLogger(__name__)

# A variant: the trainer of its model family, whether it trains with the mirror
# prior (the config's lambda_sym, else 0), whether its model reads the wing taps.
# Rows are listed longest training first, and the suite deals its jobs in that order.
Variant = namedtuple("Variant", "trainer mirror_prior wing_sensors")
VARIANTS = {
    "affine_sym": Variant(train_dynamics, mirror_prior=True, wing_sensors=True),
    "affine": Variant(train_dynamics, mirror_prior=False, wing_sensors=True),
    "affine_no_ws": Variant(train_dynamics, mirror_prior=False, wing_sensors=False),
    "unstructured": Variant(train_unstructured, mirror_prior=False, wing_sensors=True),
    "unstructured_no_ws": Variant(train_unstructured, mirror_prior=False, wing_sensors=False),
}
# The suite's gusts; a shear gust, which needs a generator yaw, comes from protocol JSON.
GUST_MODES = ("off", "shedding")
GUST_AMPLITUDE = 0.4  # m/s, the shedding gust's velocity amplitude
OUT_ROOT_ENV = "AEROALLOC_OUT"
DEFAULT_OUT_ROOT = "aeroalloc_out"


def resolve_out_root(explicit: str | os.PathLike | None = None) -> Path:
    """Output root: explicit flag, else the environment override, else ./aeroalloc_out."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(OUT_ROOT_ENV)
    return Path(env) if env else Path(DEFAULT_OUT_ROOT)


def _check_distinct(speeds, what: str) -> None:
    """At least one speed, each once: a speed's files and seed come from its position."""
    speeds = [float(v) for v in speeds]
    if not speeds:
        raise ValueError(f"{what} is empty")
    if len(set(speeds)) != len(speeds):
        raise ValueError(f"{what} repeats a speed: {speeds}")


@dataclass
class ExperimentConfig:
    seed: int = 0
    hidden: tuple = DynamicsTrainConfig.hidden
    epochs: int = 300
    lambda_sym: float = SymmetryConfig.lambda_sym
    lambda0: float = TrackingConfig.lambda0
    lambda1: float = TrackingConfig.lambda1
    train_speeds: tuple = (10.0,)
    test_speeds: tuple = (10.0, 14.0)
    gust_mode: str = "shedding"
    duration_s: float = 120.0
    holdout_fraction: float = 0.25

    def __post_init__(self) -> None:
        self.train_speeds = tuple(float(v) for v in self.train_speeds)
        self.test_speeds = tuple(float(v) for v in self.test_speeds)
        _check_distinct(self.train_speeds, "train_speeds")
        _check_distinct(self.test_speeds, "test_speeds")
        if self.gust_mode not in GUST_MODES:
            raise ValueError(f"gust_mode must be one of {GUST_MODES}, got {self.gust_mode!r}")
        for speed in self.train_speeds + self.test_speeds:  # before any job writes or trains
            plant_mod._check_airspeed(speed)
            if self.gust_mode == "shedding":
                plant_mod._check_shedding_airspeed(speed)
        for row in VARIANTS.values():  # the owners' rules, before anything runs
            self.train_config(row)
        TrackingConfig(lambda0=self.lambda0, lambda1=self.lambda1)
        probe_mod._check_positive_finite(self.duration_s, "duration_s")
        _check_holdout_fraction(self.holdout_fraction)

    def train_config(self, row: Variant) -> DynamicsTrainConfig:
        return DynamicsTrainConfig(
            seed=self.seed,
            hidden=self.hidden,
            epochs=self.epochs,
            sym=SymmetryConfig(lambda_sym=self.lambda_sym if row.mirror_prior else 0.0),
            wing_sensors=row.wing_sensors,
        )


def train_variant(variant: str, dataset, cfg: ExperimentConfig):
    """Train one named variant; all variants share the seed and data."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    row = VARIANTS[variant]
    # called through this module's name for the trainer, which a wrapper
    # (the benchmark's span tracer) may have replaced since VARIANTS was built
    return globals()[row.trainer.__name__](dataset, cfg.train_config(row))


def rmssd(u_series) -> tuple[np.ndarray, float]:
    """Root mean square of successive differences, per input and averaged.

    A smoothness metric: constant series score 0, oscillating ones score the
    typical step size. Translation-invariant by construction.
    """
    mat = _as_batch(u_series, CONTROL_DIM, "control series")
    if mat.shape[0] < 2:
        raise ValueError("need at least 2 steps to difference")
    diffs = np.diff(mat, axis=0)
    per_input = np.sqrt(np.mean(diffs**2, axis=0))
    return per_input, float(np.mean(per_input))


def closed_loop_metrics(tlog: TrackingLog) -> dict:
    """Summary block for one tracking log: smoothness, accuracy, saturation."""
    per_input, avg = rmssd(tlog.controls)
    return {
        "rmssd": {"per_input": per_input.tolist(), "average": avg},
        "tracking_rmse": tlog.tracking_rmse(),
        "clamped_fraction": float(np.mean(tlog.clamped)),
    }


def dataset_hash(*splits) -> str:
    """SHA-256 over the raw bytes of every array in every split, in order."""
    digest = hashlib.sha256()
    for split in splits:
        for arr in split:
            arr = np.ascontiguousarray(np.asarray(arr, dtype=float))
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Independent jobs across CPUs
# ---------------------------------------------------------------------------


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the OS cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _recorded(fn, args: tuple):
    """fn(*args) and the warnings it issued, as picklable tuples."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _reissue(message, category, filename: str, lineno: int) -> None:
    """Issue a recorded warning as `warnings.warn` did where it arose: under
    the name and with the once-per-location registry of the module at
    `filename`, so module filters and the "default" action behave the same."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        warnings.warn_explicit(message, category, filename, lineno, module.__name__,
                               vars(module).setdefault("__warningregistry__", {}))


def _openblas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None without one."""
    get, set_ = (numpy_blas_function(f"openblas_{op}_num_threads") for op in ("get", "set"))
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block, where it can.

    OpenBLAS threads spin while they wait for each other, so job processes
    that each run a multi-threaded BLAS on the same few CPUs slow each other
    down severalfold. The count does not change results: one thread sums
    each output element in the same order either way. With another BLAS the
    block runs as it is.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


_worker_jobs: tuple | None = None  # (fn, jobs) in a forked worker


def _init_worker(fn, jobs: list) -> None:
    global _worker_jobs
    _worker_jobs = fn, jobs


def _run_worker_job(index: int):
    fn, jobs = _worker_jobs
    return _recorded(fn, jobs[index])


def run_jobs(fn, jobs) -> list:
    """[fn(*args) for args in jobs], the jobs spread over the usable CPUs.

    With n = min(usable_cpus(), number of jobs) above 1, job i goes to slot
    i % n when i // n is even and to slot n - 1 - i % n when it is odd (a
    snake deal). This process runs the jobs of slot n - 1 itself, a fixed
    share, and a pool of n - 1 forked processes takes the rest from its
    queue; with the jobs listed longest first, the caller gets the short
    ones at the tail, whose results need no pickling back. The workers
    inherit `fn` and `jobs` through the fork, so neither is pickled, and `fn`
    may be any callable; each worker's result is pickled back, which keeps
    its floats bit for bit. (A spawned worker would import numpy again and
    take every job's inputs pickled.) The processes fork before the pool
    starts its own thread. Warnings the jobs issue are re-issued here in job
    order. An exception in a job re-raises here with its type and message,
    and a worker that dies raises `concurrent.futures.process.BrokenProcessPool`.
    With one CPU no pool is made and `multiprocessing` is not imported. While
    jobs run in parallel, numpy's OpenBLAS keeps to one thread per process
    (`_one_blas_thread`).
    """
    jobs = list(jobs)
    n_proc = min(usable_cpus(), len(jobs))
    if n_proc <= 1:
        outcomes = [_recorded(fn, args) for args in jobs]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with _one_blas_thread():  # set before the fork, so the workers inherit it
            pool = ProcessPoolExecutor(
                n_proc - 1, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker, initargs=(fn, jobs),
            )
            try:
                # slot n - 1 of the snake deal: i % n == n - 1 in even rounds i // n, 0 in odd
                mine = [i for i in range(len(jobs))
                        if i % n_proc == (n_proc - 1 if i // n_proc % 2 == 0 else 0)]
                remote = {i: pool.submit(_run_worker_job, i)
                          for i in range(len(jobs)) if i not in mine}
                local = {i: _recorded(fn, jobs[i]) for i in mine}
                outcomes = [local[i] if i in local else remote[i].result()
                            for i in range(len(jobs))]
            finally:
                pool.shutdown(cancel_futures=True)
    for _, caught in outcomes:
        for warning in caught:
            _reissue(*warning)
    return [result for result, _ in outcomes]


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------


def _gust_spec(cfg: ExperimentConfig) -> dict:
    if cfg.gust_mode == "off":
        return {"mode": "off"}
    return {"mode": cfg.gust_mode, "amplitude": GUST_AMPLITUDE}


def _speed_run(cfg: ExperimentConfig, speed, suffix: str, seed: int, params: PlantParams,
               out_dir: str | Path):
    """One stage-I dynamics run at `speed`, written as dyn_va<S><suffix>.csv; its loaded arrays."""
    protocol = {"kind": "dynamics", "name": f"dyn_{plant_mod.speed_label(speed)}{suffix}",
                "speed": speed, "stage": "I", "duration_s": cfg.duration_s,
                "gust": _gust_spec(cfg)}
    return load_dynamics_csv(plant_mod.generate_dataset(protocol, params, seed, out_dir)[0])


def generate_speed_datasets(cfg: ExperimentConfig, speeds, params: PlantParams,
                            out_dir: str | Path) -> dict:
    """One stage-I dynamics CSV per training speed, dyn_va<S>.csv at seed
    cfg.seed + i for the i-th speed; returns {speed: loaded arrays}.
    A repeated speed raises ValueError."""
    _check_distinct(speeds, "speeds")
    return {float(speed): _speed_run(cfg, speed, "", cfg.seed + i, params, out_dir)
            for i, speed in enumerate(speeds)}


def eval_speeds(cfg: ExperimentConfig) -> tuple[float, ...]:
    """The speeds of the suite's eval sets, in order: the training speeds, then
    each test speed not among them."""
    return cfg.train_speeds + tuple(s for s in cfg.test_speeds if s not in cfg.train_speeds)


def generate_eval_set(cfg: ExperimentConfig, speed: float, params: PlantParams,
                      out_dir: str | Path):
    """The suite's eval set at `speed`: a fresh stage-I run, written as
    dyn_va<S>_eval.csv, at seed cfg.seed + 1000 + the speed's position in
    `eval_speeds(cfg)`; returns its loaded arrays. A speed that is not one of
    them raises ValueError."""
    speed, speeds = float(speed), eval_speeds(cfg)
    if speed not in speeds:
        raise ValueError(f"{speed:g} m/s is not an eval speed of the config, {list(speeds)}")
    return _speed_run(cfg, speed, "_eval", cfg.seed + 1000 + speeds.index(speed), params, out_dir)


def _concat_datasets(datasets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The datasets' rows in order; a lone dataset's own arrays, uncopied (no
    caller writes into them)."""
    if len(datasets) == 1:
        return tuple(datasets[0])
    return tuple(np.concatenate(arrays) for arrays in zip(*datasets))


# ---------------------------------------------------------------------------
# Ablation suite
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-variant metrics on a shared split.

    Each variant entry carries aggregate and per-channel wrench RMSE,
    shift-inflation percentages and the flaperon mirror residual (affine models
    only). `config` holds the ExperimentConfig fields of the run that
    produced the report, as JSON values, plus the package `version`; reports
    written before it existed load with an empty one.
    """

    seed: int
    train_speeds: tuple
    split_hash: str
    variants: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsReport":
        report = cls(
            seed=int(doc["seed"]),
            train_speeds=tuple(doc["train_speeds"]),
            split_hash=str(doc["split_hash"]),
            variants=dict(doc["variants"]),
            config=dict(doc.get("config", {})),
        )
        for name, entry in report.variants.items():  # what format_report_text reads of each one
            entry["rmse"]["in_dist"]
            for block in ("rmse", "inflation_pct"):
                for key, value in dict(entry[block]).items():
                    if type(value) not in (int, float):  # a JSON number, not a bool
                        raise ValueError(f"the suite report's {name} {block} {key!r} must be "
                                         f"a number, got {type(value).__name__}")
                    _report_order(key)
        return report


def _report_order(key: str) -> float:
    """A report key's place in the tables: in_dist first, then each va<S> by the
    speed S. A key that is not a `plant.speed_label` raises ValueError."""
    if key == "in_dist":
        return -np.inf
    with contextlib.suppress(ValueError):
        if plant_mod.speed_label(speed := float(key[2:])) == key:
            return speed
    raise ValueError(f"report key {key!r} is neither in_dist nor a speed label")


def _config_block(cfg: ExperimentConfig) -> dict:
    """The report's `config`: cfg's fields, tuples as lists, plus the package version."""
    block = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}
    block["version"] = __version__
    return block


def _score(model, cfg: ExperimentConfig, in_dist_split, eval_sets: dict) -> dict:
    """A trained variant's entry in the suite report."""
    rmse_in = eval_rmse(model, in_dist_split)
    entry = {
        "rmse": {"in_dist": rmse_in},
        "per_channel_in_dist": per_channel_rmse(model, in_dist_split).tolist(),
        "inflation_pct": {},
    }
    for speed, eval_set in eval_sets.items():
        key = plant_mod.speed_label(speed)
        rmse_s = entry["rmse"][key] = eval_rmse(model, eval_set)
        if speed not in cfg.train_speeds:
            entry["inflation_pct"][key] = 100.0 * (rmse_s - rmse_in) / rmse_in
    entry["sym_residual"] = (symmetry_residual_norm(model, in_dist_split[0])
                             if model.affine_in_u else None)
    return entry


def run_ablation_suite(
    cfg: ExperimentConfig, out_dir: str | Path, params: PlantParams | None = None
) -> MetricsReport:
    """Train every variant on identical data and evaluate across speeds.

    Writes suite_report.{json,csv,txt} under out_dir/reports and the generated
    datasets under out_dir/datasets. Every evaluation set is an independently
    generated run (fresh schedule and noise, offset seeds): in-distribution
    RMSE comes from fresh runs at the training speeds, and inflation is the
    relative RMSE increase of each other evaluation speed over that number.
    After the training sets, one `run_jobs` call runs the trainings, in
    `VARIANTS` order, and then one eval-set generation per eval speed; this
    process then scores the returned models on the returned eval sets.
    """
    params = params or PlantParams()
    out_dir = Path(out_dir)
    data_dir = out_dir / "datasets"
    report_dir = out_dir / "reports"

    train_sets = generate_speed_datasets(cfg, cfg.train_speeds, params, data_dir)
    full_train = _concat_datasets([train_sets[s] for s in cfg.train_speeds])
    train_split, _ = block_split(full_train, cfg.holdout_fraction)

    def job(key):
        if key in VARIANTS:
            return train_variant(key, train_split, cfg)
        return generate_eval_set(cfg, key, params, data_dir)

    keys = [*VARIANTS, *eval_speeds(cfg)]
    done = dict(zip(keys, run_jobs(job, [(key,) for key in keys])))
    eval_sets = {speed: done[speed] for speed in eval_speeds(cfg)}
    in_dist_split = _concat_datasets([eval_sets[s] for s in cfg.train_speeds])
    split_hash = dataset_hash(train_split, *eval_sets.values())

    report = MetricsReport(
        seed=cfg.seed, train_speeds=cfg.train_speeds, split_hash=split_hash,
        config=_config_block(cfg),
    )
    for variant in VARIANTS:
        entry = report.variants[variant] = _score(done[variant], cfg, in_dist_split, eval_sets)
        log.info("variant %s: in-dist rmse %.4f", variant, entry["rmse"]["in_dist"])

    report_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(report, report_dir / "suite_report.json")
    write_report_csv(report, report_dir / "suite_report.csv")
    (report_dir / "suite_report.txt").write_text(format_report_text(report))
    return report


def write_report_json(report: MetricsReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1))


def load_report_json(path: str | Path) -> MetricsReport:
    return load_json(path, MetricsReport.from_dict, "suite report")


def write_report_csv(report: MetricsReport, path: str | Path) -> None:
    rows = []
    for variant in sorted(report.variants):
        entry = report.variants[variant]
        for block in ("rmse", "inflation_pct"):
            for key in sorted(entry[block], key=_report_order):
                rows.append([variant, block, key, entry[block][key]])
        for i, val in enumerate(entry["per_channel_in_dist"]):
            rows.append([variant, "per_channel_rmse", f"ch{i}", val])
        if entry.get("sym_residual") is not None:
            rows.append([variant, "sym_residual", "in_dist", entry["sym_residual"]])
    write_table(path, ["variant", "metric", "key", "value"], rows)


def _check_variants(names, known) -> None:
    """Raise ValueError naming the entries of `names` that are not in `known`."""
    missing = [v for v in names if v not in known]
    if missing:
        raise ValueError(f"variants not in report: {missing}")


def format_report_text(report: MetricsReport, compare=None) -> str:
    """Aligned table of the aggregate RMSE numbers.

    The aggregate pools newtons with newton meters, so treat it as a
    comparative figure between variants, not a physical error.
    """
    variants = list(compare) if compare else sorted(report.variants)
    _check_variants(variants, report.variants)
    speed_keys = sorted(
        {k for v in variants for k in report.variants[v]["rmse"] if k != "in_dist"},
        key=_report_order,
    )
    lines = [
        f"seed {report.seed}  train speeds {list(report.train_speeds)}  "
        f"split {report.split_hash[:12]}",
        "comparative aggregate wrench RMSE (N and N m pooled)",
        "",
    ]
    header = f"{'variant':<20}{'in_dist':>10}"
    for key in speed_keys:
        header += f"{key:>10}{'infl%':>9}"
    lines.append(header)
    for variant in variants:
        entry = report.variants[variant]
        row = f"{variant:<20}{entry['rmse']['in_dist']:>10.4f}"
        for key in speed_keys:
            row += f"{entry['rmse'].get(key, float('nan')):>10.4f}"
            row += f"{entry['inflation_pct'].get(key, float('nan')):>9.1f}"
        lines.append(row)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Closed-loop runs
# ---------------------------------------------------------------------------


def make_target_sequence(
    params: PlantParams,
    speed: float,
    t: np.ndarray,
    seed: int,
    alpha_deg: np.ndarray,
    beta_deg: np.ndarray,
) -> np.ndarray:
    """Demanded wrench: the scheduled condition's own gust-free baseline plus
    slow lift and roll modulation.

    Riding the schedule baseline keeps the demanded deflections modest, so the
    allocator works all four surfaces without living on the actuator limits.
    """
    rng = np.random.default_rng(seed)
    targets, _ = plant_mod.true_affine_terms(speed, alpha_deg, beta_deg, params)
    ref = abs(plant_mod.dynamic_pressure(speed, params) * params.wing_area * params.cl0)
    f1, f2 = rng.uniform(0.05, 0.1), rng.uniform(0.1, 0.18)
    ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    targets[:, 2] += 0.2 * ref * np.sin(2.0 * np.pi * f1 * t + ph1)
    targets[:, 3] += 0.05 * ref * params.span * np.sin(2.0 * np.pi * f2 * t + ph2)
    return targets


def closed_loop_run(
    model,
    cfg: ExperimentConfig,
    speed: float,
    tracking: TrackingConfig | None = None,
    params: PlantParams | None = None,
    seed: int | None = None,
) -> TrackingLog:
    """Track a seeded target sequence against the plant at one speed.

    The observation stream is regenerated each step from the plant with the
    previously applied command, so wing-tap feedback is closed-loop. What
    does not depend on the command (the gusts, the probe features, the
    sensor noise, the wing-tap and wrench baselines) is built once per run
    (`plant.run_terms`), and each step adds only the command's share. Two
    runs with the same seed see identical conditions, targets, and sensor
    noise regardless of the model, which makes paired comparisons meaningful.
    """
    params = params or PlantParams()
    tracking = tracking or TrackingConfig(lambda0=cfg.lambda0, lambda1=cfg.lambda1)
    seed = cfg.seed if seed is None else seed
    rng_sched, rng_targets, rng_noise = map(np.random.default_rng, _child_seeds(seed, 3))
    protocol = {"stage": "I", "duration_s": cfg.duration_s, "dt": DT}
    t, alpha, beta = plant_mod.stage_schedule(protocol, params, rng_sched)
    gust = plant_mod.gust_from_spec(_gust_spec(cfg), speed, params)
    terms = plant_mod.run_terms(params, speed, t, alpha, beta, gust, rng_noise)
    targets = make_target_sequence(
        params, speed, t, int(rng_targets.integers(2**32)), alpha_deg=alpha, beta_deg=beta
    )

    def observe(k: int, u_prev: np.ndarray):
        return plant_mod.make_observation(terms, k, u_prev)

    def achieved(k: int, u: np.ndarray):
        return plant_mod.true_wrench(terms, k, u)

    return track_sequence(model, targets, observe, tracking, achieved_fn=achieved)
