"""Data-driven five-hole probe calibration.

Raw tap pressures are reduced to nondimensional coefficients that depend on
flow direction but not speed; a small network regresses the dynamic-pressure
correction and the two flow angles from them, and the airspeed is recovered
by inverting the correction definition.

Each stage works on rows of taps at once, and its one-reading form
(`normalize`, `reconstruct_airspeed`, `estimate_flow`) is the one-row case,
so a run's estimates from `estimate_flow_rows` equal per-reading calls bit
for bit.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nncore
from .nncore import Network, _as_batch
from .table import read_table, write_table

log = logging.getLogger(__name__)

RHO = 1.225  # kg/m^3, standard sea-level air; the default wherever a density is taken
TAPS = 5  # tap pressures of one probe, ordered (center, up, down, left, right)
FLOW_VALUES = 3  # what one probe reports: airspeed, alpha, beta (or Cd, alpha, beta)
EPS_DP = 1e-6  # Pa; below this the probe sees no usable flow
# Most rows of one calibration-network pass. One pass over a 6000-step excitation run
# raised its peak RSS by about 0.7 MB over one-reading passes; 256-row passes
# keep it about 0.25 MB below them.
ROWS_PER_BLOCK = 256
BATCH_SIZE = 128  # minibatch rows of `train_calibration`

CALIBRATION_CSV_HEADER = [f"p{i}" for i in range(1, TAPS + 1)] + ["Va", "alpha_deg", "beta_deg"]


class NoFlowError(ValueError):
    """Tap spread too small to normalize; airspeed is unobservable."""


@dataclass(frozen=True)
class ProbePressures:
    """`TAPS` tap pressures in Pa, ordered (center, up, down, left, right)."""

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=np.float64).reshape(-1)
        if arr.shape != (TAPS,):
            raise ValueError(f"expected {TAPS} tap pressures, got shape {np.shape(self.p)}")
        if not np.isfinite(arr).all():
            raise ValueError("tap pressures must be finite")
        object.__setattr__(self, "p", arr)


@dataclass(frozen=True)
class FlowState:
    va: float
    alpha_deg: float
    beta_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.va < math.inf:  # NaN fails the comparison as well
            raise ValueError(f"airspeed must be finite and nonnegative, got {self.va}")
        if not (math.isfinite(self.alpha_deg) and math.isfinite(self.beta_deg)):
            raise ValueError(f"flow angles must be finite, got {self.alpha_deg}, {self.beta_deg}")


def _first(bad: np.ndarray) -> int | None:
    rows = np.flatnonzero(bad)
    return int(rows[0]) if rows.size else None


def _normalize_rows(taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`normalize` of each row of finite taps (n, 5): the (n, 5) coefficients
    and the (n,) spreads."""
    p_max = taps.max(axis=1)
    delta_p = p_max - taps.min(axis=1)
    k = _first(delta_p <= EPS_DP)
    if k is not None:
        raise NoFlowError(f"tap spread {delta_p[k]:.3g} Pa <= {EPS_DP:.3g} Pa at row {k}")
    cp = p_max[:, None] - taps
    cp /= delta_p[:, None]
    return cp, delta_p


def normalize(p: ProbePressures) -> tuple[np.ndarray, float]:
    """Map tap pressures to coefficients (p_max - p_i)/(p_max - p_min) and the
    tap spread p_max - p_min in Pa.

    The hottest tap maps to 0, the coldest to 1; adding a constant to all taps
    or scaling them by a positive factor leaves the coefficients unchanged.
    """
    cp, delta_p = _normalize_rows(p.p[None])
    return cp[0], float(delta_p[0])


def _check_positive_finite(value: float, what: str) -> None:
    # NaN fails both comparisons, so it is rejected along with inf and <= 0
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def dynamic_pressure_correction(va: float, delta_p: float, rho: float) -> float:
    """Ratio of true dynamic pressure 0.5*rho*Va^2 to the tap spread."""
    _check_positive_finite(delta_p, "tap spread")
    _check_positive_finite(rho, "air density")
    return 0.5 * rho * va * va / delta_p


def _airspeed_rows(cd: np.ndarray, delta_p: np.ndarray, rho: float) -> np.ndarray:
    """`reconstruct_airspeed` of each row, for spreads and a density already checked."""
    k = _first(~((cd > 0.0) & (cd < math.inf)))  # NaN fails both comparisons
    if k is not None:
        raise ValueError(
            f"dynamic-pressure correction must be positive and finite, got {cd[k]} at row {k}"
        )
    return np.sqrt(2.0 * delta_p * cd / rho)


def reconstruct_airspeed(cd: float, delta_p: float, rho: float) -> float:
    """Invert the correction definition: Va = sqrt(2 * delta_p * Cd / rho)."""
    _check_positive_finite(delta_p, "tap spread")
    _check_positive_finite(rho, "air density")
    return float(_airspeed_rows(np.array([cd], dtype=np.float64), delta_p, rho)[0])


def _calibrate_rows(model: Network, cp: np.ndarray) -> np.ndarray:
    """The calibration network on each row of cp (n, 5): (n, 3) rows of
    (Cd, alpha_deg, beta_deg); a non-finite output raises ValueError.

    The network runs as a stack of one-row products, one pass per near-equal
    block of at most `ROWS_PER_BLOCK` rows, so each row equals the one-row call
    bit for bit.
    """
    nncore._check_network(model, TAPS, FLOW_VALUES, "calibration model")
    (out,) = nncore.by_row_blocks(
        lambda rows: (nncore.forward(model, rows[:, None, :]).reshape(-1, FLOW_VALUES),),
        ROWS_PER_BLOCK, cp)
    k = _first(~np.isfinite(out).all(axis=1))
    if k is not None:
        raise ValueError(
            f"calibration network output must be finite, got {out[k].tolist()} at row {k}"
        )
    return out


def estimate_flow_rows(model: Network, taps: np.ndarray, rho: float = RHO) -> np.ndarray:
    """The deployment chain on each row of taps (n, 5): (n, 3) rows of
    (va, alpha_deg, beta_deg), row k equal to `estimate_flow` on taps[k] bit
    for bit.

    Raises as `estimate_flow` does, naming the first offending row of the
    stage that fails: ValueError for non-finite taps, NoFlowError for a tap
    spread <= `EPS_DP`, ValueError for a non-finite network output or a
    correction that is not positive and finite.
    """
    taps = _as_batch(taps, TAPS, "taps")
    _check_positive_finite(rho, "air density")
    k = _first(~np.isfinite(taps).all(axis=1))
    if k is not None:
        raise ValueError(f"tap pressures must be finite, got {taps[k].tolist()} at row {k}")
    cp, delta_p = _normalize_rows(taps)
    flow = _calibrate_rows(model, cp)
    flow[:, 0] = _airspeed_rows(flow[:, 0], delta_p, rho)
    return flow


def estimate_flow(model: Network, p: ProbePressures, rho: float = RHO) -> FlowState:
    """Full deployment chain: normalize -> calibrate -> reconstruct airspeed."""
    va, alpha_deg, beta_deg = estimate_flow_rows(model, p.p[None], rho)[0].tolist()
    return FlowState(va=va, alpha_deg=alpha_deg, beta_deg=beta_deg)


@dataclass
class CalibrationTrainConfig:
    seed: int = 0
    hidden: tuple[int, ...] = (32, 32)
    epochs: int = 2000
    lr: float = 3e-3
    rho: float = RHO  # kg/m^3; the Cd labels hold only at the density the taps were read in

    def __post_init__(self) -> None:
        nncore._check_budget(self.epochs, self.hidden)


def _to_features_targets(
    dataset: list[tuple[ProbePressures, FlowState]], cfg: CalibrationTrainConfig
) -> tuple[np.ndarray, np.ndarray]:
    feats, targets = [], []
    n_degenerate = 0
    for pressures, flow in dataset:
        try:
            cp, delta_p = normalize(pressures)
        except NoFlowError:
            n_degenerate += 1
            continue
        cd = dynamic_pressure_correction(flow.va, delta_p, cfg.rho)
        feats.append(cp)
        targets.append((cd, flow.alpha_deg, flow.beta_deg))
    if not feats:
        raise ValueError(f"all {n_degenerate} samples are no-flow degenerate")
    if n_degenerate:
        log.info("dropped %d no-flow degenerate samples", n_degenerate)
    return np.asarray(feats), np.asarray(targets)


def train_calibration(
    dataset: list[tuple[ProbePressures, FlowState]],
    cfg: CalibrationTrainConfig,
    history: list[float] | None = None,
) -> Network:
    """Fit the 5 -> 3 calibration network by minimizing MSE on (Cd, alpha, beta).

    The Cd target for each sample comes from the labeled airspeed and that
    sample's own tap spread. Targets are standardized during optimization for
    conditioning and the inverse scaling is folded back into the output layer,
    so the returned network predicts raw (Cd, alpha_deg, beta_deg).

    If `history` is given, the full-dataset loss after each epoch is appended.
    """
    if not dataset:
        raise ValueError("calibration dataset is empty")
    speeds = {round(flow.va, 9) for _, flow in dataset}
    if len(speeds) < 2:
        raise ValueError(f"need labels at >= 2 distinct airspeeds, got {sorted(speeds)}")

    x, t = _to_features_targets(dataset, cfg)

    t_mean, t_std = nncore.standardize_stats(t)
    t_norm = (t - t_mean) / t_std

    net = nncore.init_network([TAPS, *cfg.hidden, FLOW_VALUES], seed=cfg.seed)
    opt = nncore.init_optimizer(net, lr=cfg.lr)

    def minibatch_grads(xb, tb):
        acts = nncore.forward(net, xb, activations=True)
        upstream = 2.0 * (acts[-1] - tb) / acts[-1].size
        nncore.backward(net, upstream, acts, with_input_grad=False, out=opt.tapes[0])

    def full_loss():
        resid = nncore.forward(net, x) - t_norm
        return float((resid**2).mean())

    nncore.fit(
        opt, (x, t_norm), BATCH_SIZE, cfg.epochs, np.random.default_rng(cfg.seed),
        minibatch_grads, full_loss, history,
    )

    nncore.fold_output_scaling(net, t_std, t_mean)
    return net


def save_calibration_csv(path: str | Path, rows: list[tuple[ProbePressures, FlowState]]) -> None:
    write_table(path, CALIBRATION_CSV_HEADER, (
        pressures.p.tolist() + [float(flow.va), float(flow.alpha_deg), float(flow.beta_deg)]
        for pressures, flow in rows
    ))


def load_calibration_csv(path: str | Path) -> list[tuple[ProbePressures, FlowState]]:
    return [
        (ProbePressures(np.asarray(vals[:TAPS])), FlowState(*vals[TAPS:]))
        for vals in read_table(path, CALIBRATION_CSV_HEADER).tolist()
    ]
