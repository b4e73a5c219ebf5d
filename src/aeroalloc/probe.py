"""Data-driven five-hole probe calibration.

Raw tap pressures are reduced to nondimensional coefficients that depend on
flow direction but not speed; a small network regresses the dynamic-pressure
correction and the two flow angles from them, and the airspeed is recovered
by inverting the correction definition.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nncore
from .nncore import Network
from .table import read_table, write_table

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
        if not 0.0 <= self.va < math.inf:  # NaN fails the comparison as well
            raise ValueError(f"airspeed must be finite and nonnegative, got {self.va}")
        if not (math.isfinite(self.alpha_deg) and math.isfinite(self.beta_deg)):
            raise ValueError(f"flow angles must be finite, got {self.alpha_deg}, {self.beta_deg}")


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


def _check_positive_finite(value: float, what: str) -> None:
    # NaN fails both comparisons, so it is rejected along with inf and <= 0
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def dynamic_pressure_correction(va: float, delta_p: float, rho: AirDensity | float) -> float:
    """Ratio of true dynamic pressure 0.5*rho*Va^2 to the tap spread."""
    _check_positive_finite(delta_p, "tap spread")
    return 0.5 * _rho_value(rho) * va * va / delta_p


def reconstruct_airspeed(cd: float, delta_p: float, rho: AirDensity | float) -> float:
    """Invert the correction definition: Va = sqrt(2 * delta_p * Cd / rho)."""
    _check_positive_finite(cd, "dynamic-pressure correction")
    _check_positive_finite(delta_p, "tap spread")
    return float(np.sqrt(2.0 * delta_p * cd / _rho_value(rho)))


def calibrate(model: Network, np_: NormalizedPressures) -> CalibrationOutput:
    """Run the calibration network on normalized pressures -> (Cd, alpha, beta).

    Raises ValueError if the network output is not finite.
    """
    if model.input_dim != 5 or model.output_dim != 3:
        raise ValueError(
            f"calibration model must map 5 -> 3, got {model.input_dim} -> {model.output_dim}"
        )
    cd, alpha_deg, beta_deg = nncore.forward(model, np_.cp).tolist()
    if not (math.isfinite(cd) and math.isfinite(alpha_deg) and math.isfinite(beta_deg)):
        raise ValueError(
            f"calibration network output must be finite, got {[cd, alpha_deg, beta_deg]}"
        )
    return CalibrationOutput(cd=cd, alpha_deg=alpha_deg, beta_deg=beta_deg)


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
        return (nncore.backward(net, xb, upstream, acts, with_input_grad=False),)

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
    write_table(path, CALIBRATION_CSV_HEADER, (
        pressures.p.tolist() + [float(flow.va), float(flow.alpha_deg), float(flow.beta_deg)]
        for pressures, flow in rows
    ))


def load_calibration_csv(path: str | Path) -> list[tuple[ProbePressures, FlowState]]:
    return [
        (ProbePressures(np.asarray(vals[:5])), FlowState(*vals[5:]))
        for vals in read_table(path, CALIBRATION_CSV_HEADER).tolist()
    ]
