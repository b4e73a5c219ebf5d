"""Data-driven five-hole probe calibration.

Raw tap pressures are reduced to nondimensional coefficients that depend on
flow direction but not speed; a small network regresses the dynamic-pressure
correction and the two flow angles from them, and the airspeed is recovered
by inverting the correction definition.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nncore
from .nncore import Network

log = logging.getLogger(__name__)

TAP_ORDER = ("center", "up", "down", "left", "right")
ACCEPTANCE_CONE_DEG = 45.0
DEFAULT_EPS_DP = 1e-6  # Pa; below this the probe sees no usable flow

CALIBRATION_CSV_HEADER = ["p1", "p2", "p3", "p4", "p5", "Va", "alpha_deg", "beta_deg"]


class NoFlowError(ValueError):
    """Tap spread too small to normalize; airspeed is unobservable."""


@dataclass(frozen=True)
class ProbePressures:
    """Five tap pressures in Pa, ordered (center, up, down, left, right)."""

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=np.float64).reshape(-1)
        if arr.shape != (5,):
            raise ValueError(f"expected 5 tap pressures, got shape {np.shape(self.p)}")
        if not np.isfinite(arr).all():
            raise ValueError("tap pressures must be finite")
        object.__setattr__(self, "p", arr)


@dataclass(frozen=True)
class NormalizedPressures:
    """Nondimensional tap coefficients plus the raw tap spread in Pa."""

    cp: np.ndarray
    delta_p: float


@dataclass(frozen=True)
class CalibrationOutput:
    cd: float
    alpha_deg: float
    beta_deg: float

    @property
    def is_physical(self) -> bool:
        """Positive correction and angles inside the probe acceptance cone."""
        return (
            self.cd > 0.0
            and abs(self.alpha_deg) <= ACCEPTANCE_CONE_DEG
            and abs(self.beta_deg) <= ACCEPTANCE_CONE_DEG
        )


@dataclass(frozen=True)
class FlowState:
    va: float
    alpha_deg: float
    beta_deg: float

    def __post_init__(self) -> None:
        if self.va < 0.0:
            raise ValueError(f"airspeed must be nonnegative, got {self.va}")


@dataclass(frozen=True)
class AirDensity:
    rho: float = 1.225

    def __post_init__(self) -> None:
        if not self.rho > 0.0:
            raise ValueError(f"air density must be positive, got {self.rho}")


def _rho_value(rho: AirDensity | float) -> float:
    value = rho.rho if isinstance(rho, AirDensity) else float(rho)
    if not value > 0.0:
        raise ValueError(f"air density must be positive, got {value}")
    return value


def normalize(p: ProbePressures, eps_dp: float = DEFAULT_EPS_DP) -> NormalizedPressures:
    """Map tap pressures to coefficients (p_max - p_i)/(p_max - p_min).

    The hottest tap maps to 0, the coldest to 1; adding a constant to all taps
    or scaling them by a positive factor leaves the coefficients unchanged.
    """
    arr = p.p
    p_max = float(arr.max())
    delta_p = p_max - float(arr.min())
    if delta_p <= eps_dp:
        raise NoFlowError(f"tap spread {delta_p:.3g} Pa <= {eps_dp:.3g} Pa")
    return NormalizedPressures(cp=(p_max - arr) / delta_p, delta_p=delta_p)


def dynamic_pressure_correction(va: float, delta_p: float, rho: AirDensity | float) -> float:
    """Ratio of true dynamic pressure 0.5*rho*Va^2 to the tap spread."""
    if delta_p <= 0.0:
        raise ValueError(f"tap spread must be positive, got {delta_p}")
    return 0.5 * _rho_value(rho) * va * va / delta_p


def reconstruct_airspeed(cd: float, delta_p: float, rho: AirDensity | float) -> float:
    """Invert the correction definition: Va = sqrt(2 * delta_p * Cd / rho)."""
    if cd <= 0.0:
        raise ValueError(f"dynamic-pressure correction must be positive, got {cd}")
    if delta_p <= 0.0:
        raise ValueError(f"tap spread must be positive, got {delta_p}")
    return float(np.sqrt(2.0 * delta_p * cd / _rho_value(rho)))


def calibrate(model: Network, np_: NormalizedPressures) -> CalibrationOutput:
    """Run the calibration network on normalized pressures -> (Cd, alpha, beta)."""
    if model.input_dim != 5 or model.output_dim != 3:
        raise ValueError(
            f"calibration model must map 5 -> 3, got {model.input_dim} -> {model.output_dim}"
        )
    out = nncore.forward(model, np_.cp)
    return CalibrationOutput(cd=float(out[0]), alpha_deg=float(out[1]), beta_deg=float(out[2]))


def estimate_flow(
    model: Network,
    p: ProbePressures,
    rho: AirDensity | float = AirDensity(),
    eps_dp: float = DEFAULT_EPS_DP,
) -> FlowState:
    """Full deployment chain: normalize -> calibrate -> reconstruct airspeed."""
    norm = normalize(p, eps_dp=eps_dp)
    cal = calibrate(model, norm)
    va = reconstruct_airspeed(cal.cd, norm.delta_p, rho)
    return FlowState(va=va, alpha_deg=cal.alpha_deg, beta_deg=cal.beta_deg)


@dataclass
class CalibrationTrainConfig:
    seed: int = 0
    hidden: tuple[int, ...] = (32, 32)
    epochs: int = 2000
    batch_size: int = 128
    lr: float = 3e-3
    rho: float = 1.225
    eps_dp: float = DEFAULT_EPS_DP
    deterministic_order: bool = False
    log_every: int = 0  # epochs between loss log lines; 0 disables


def _to_features_targets(
    dataset: list[tuple[ProbePressures, FlowState]], cfg: CalibrationTrainConfig
) -> tuple[np.ndarray, np.ndarray]:
    feats, targets = [], []
    n_degenerate = 0
    for pressures, flow in dataset:
        try:
            norm = normalize(pressures, eps_dp=cfg.eps_dp)
        except NoFlowError:
            n_degenerate += 1
            continue
        cd = dynamic_pressure_correction(flow.va, norm.delta_p, cfg.rho)
        feats.append(norm.cp)
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
    if cfg.deterministic_order:
        order = np.lexsort(np.column_stack([x, t]).T[::-1])
        x, t = x[order], t[order]

    t_mean, t_std = nncore.standardize_stats(t)
    t_norm = (t - t_mean) / t_std

    net = nncore.init_network([5, *cfg.hidden, 3], seed=cfg.seed)
    opt = nncore.init_optimizer(net, lr=cfg.lr)

    def minibatch_grads(idx):
        xb = x[idx]
        acts = nncore.forward(net, xb, activations=True)
        upstream = 2.0 * (acts[-1] - t_norm[idx]) / acts[-1].size
        return (nncore.backward(net, xb, upstream, acts),)

    def full_loss():
        resid = nncore.forward(net, x) - t_norm
        return float((resid**2).mean())

    nncore.fit(
        opt, x.shape[0], cfg.batch_size, cfg.epochs, np.random.default_rng(cfg.seed),
        minibatch_grads, full_loss, history, cfg.log_every,
    )

    nncore.fold_output_scaling(net, t_std, t_mean)
    return net


def save_calibration_csv(path: str | Path, rows: list[tuple[ProbePressures, FlowState]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CALIBRATION_CSV_HEADER)
        for pressures, flow in rows:
            writer.writerow(
                [str(float(v)) for v in pressures.p]
                + [str(float(flow.va)), str(float(flow.alpha_deg)), str(float(flow.beta_deg))]
            )


def load_calibration_csv(path: str | Path) -> list[tuple[ProbePressures, FlowState]]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CALIBRATION_CSV_HEADER:
            raise ValueError(f"unexpected calibration CSV header: {header}")
        for rec in reader:
            vals = [float(v) for v in rec]
            rows.append(
                (
                    ProbePressures(np.asarray(vals[:5])),
                    FlowState(va=vals[5], alpha_deg=vals[6], beta_deg=vals[7]),
                )
            )
    return rows
