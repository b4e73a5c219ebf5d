"""Regularized least-squares control allocation.

Given the local affine wrench model y = A + B u, pick the deflection command
that best realizes a target wrench while staying close to the previous
command (smoothness) and to the trim command (damping):

    minimize  ||y - A - B u||^2 + lambda1 ||u - u_prev||^2 + lambda0 ||u - u_trim||^2

With lambda0 + lambda1 > 0 the objective is strictly convex, so the unique
minimizer solves the 4x4 symmetric positive-definite normal equations
Q u = c exactly. Actuator limits are applied after the solve, keeping the
closed form exact and making saturation observable in the logs.

`solve` factors Q with LAPACK's Cholesky routines (potrf/potrs, the ones
scipy's cho_factor/cho_solve wrap), called directly because the wrappers cost
more than the 4x4 arithmetic. `track_sequence` validates its configuration and
targets once, at its boundary; inside the loop it checks only what each step
produces: the model's (A, B) and the achieved wrench must be finite. A step's
time is then mostly the plant's observation and response (about a third in a
traced C7 loop), the model pass (about a third) and the small numpy operations
of the solve (about a quarter).
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import get_lapack_funcs

from .dynamics import (
    AffineModel,
    CONTROL_DIM,
    Control,
    UnstructuredModel,
    WRENCH_DIM,
    Wrench,
    affine_at,
    predict,
)

log = logging.getLogger(__name__)

TRACKING_CSV_HEADER = (
    ["t"]
    + [f"target_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + [f"predicted_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + [f"achieved_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + [f"u_{c}" for c in ("la", "ra", "el", "ru")]
    + [f"clamped_{c}" for c in ("la", "ra", "el", "ru")]
)


_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty((CONTROL_DIM, CONTROL_DIM)),))


class NotStrictlyConvexError(ValueError):
    """Both control penalties are zero, so the minimizer may not be unique."""


def _vec(value, dim: int, what: str) -> np.ndarray:
    if isinstance(value, (Wrench, Control)):
        value = value.as_array()
    vec = np.asarray(value, dtype=float)
    if vec.shape != (dim,):
        raise ValueError(f"{what} must have {dim} entries, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} must be finite")
    return vec


def _check_penalties(lambda0: float, lambda1: float) -> None:
    if lambda0 < 0.0 or lambda1 < 0.0:
        raise ValueError("penalty weights must be >= 0")
    if lambda0 + lambda1 <= 0.0:
        raise NotStrictlyConvexError("lambda0 + lambda1 must be positive for a unique minimizer")


@dataclass(frozen=True)
class AllocationProblem:
    """One allocation step: local model (a, b), target, references, penalties."""

    a: np.ndarray           # 6-vector offset wrench
    b: np.ndarray           # 6x4 effectiveness matrix
    y_target: np.ndarray    # 6-vector desired wrench
    u_prev: np.ndarray = field(default_factory=lambda: np.zeros(CONTROL_DIM))
    u_trim: np.ndarray = field(default_factory=lambda: np.zeros(CONTROL_DIM))
    lambda0: float = 0.01
    lambda1: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _vec(self.a, WRENCH_DIM, "offset wrench"))
        object.__setattr__(self, "y_target", _vec(self.y_target, WRENCH_DIM, "target wrench"))
        object.__setattr__(self, "u_prev", _vec(self.u_prev, CONTROL_DIM, "previous command"))
        object.__setattr__(self, "u_trim", _vec(self.u_trim, CONTROL_DIM, "trim command"))
        b = np.asarray(self.b, dtype=float)
        if b.shape != (WRENCH_DIM, CONTROL_DIM):
            raise ValueError(f"effectiveness matrix must be {WRENCH_DIM}x{CONTROL_DIM}")
        if not np.isfinite(b).all():
            raise ValueError("effectiveness matrix must be finite")
        object.__setattr__(self, "b", b)
        _check_penalties(self.lambda0, self.lambda1)

    @classmethod
    def _prechecked(cls, a, b, y_target, u_prev, u_trim, lambda0, lambda1) -> "AllocationProblem":
        """A problem from float arrays of the right shapes and penalties the
        caller has already validated; skips re-checking them."""
        p = object.__new__(cls)
        p.__dict__.update(a=a, b=b, y_target=y_target, u_prev=u_prev, u_trim=u_trim,
                          lambda0=lambda0, lambda1=lambda1)
        return p


@dataclass(frozen=True)
class AllocationSolution:
    """Closed-form minimizer plus its post-solve clamp.

    objective_value and residual_norm are evaluated at the unconstrained
    minimizer; u_star is that minimizer clipped to the actuator limits, with
    per-surface clamp flags. When nothing clamps, u_star equals
    u_unconstrained exactly.
    """

    u_star: Control
    u_unconstrained: np.ndarray
    clamped: np.ndarray
    objective_value: float
    residual_norm: float


_EYE_CONTROL = np.eye(CONTROL_DIM)


def build_normal_equations(p: AllocationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-stationarity system Q u = c of the allocation objective.

    Q is positive definite because an AllocationProblem has lambda0 + lambda1 > 0.
    """
    lam = p.lambda0 + p.lambda1
    q = 2.0 * (p.b.T @ p.b + lam * _EYE_CONTROL)
    c = 2.0 * (p.b.T @ (p.y_target - p.a) + p.lambda1 * p.u_prev + p.lambda0 * p.u_trim)
    return q, c


def _objective(p: AllocationProblem, u: np.ndarray, sq_resid) -> float:
    return float(
        sq_resid
        + p.lambda1 * ((u - p.u_prev) ** 2).sum()
        + p.lambda0 * ((u - p.u_trim) ** 2).sum()
    )


def objective(p: AllocationProblem, u) -> float:
    u = _vec(u, CONTROL_DIM, "command")
    resid = p.y_target - p.a - p.b @ u
    return _objective(p, u, resid @ resid)


def solve(p: AllocationProblem) -> AllocationSolution:
    """Unique minimizer via a Cholesky solve of the normal equations."""
    q, c = build_normal_equations(p)
    if not (np.isfinite(q).all() and np.isfinite(c).all()):
        raise ValueError("normal equations must be finite")
    factor, info = _POTRF(q, lower=1, clean=0)
    if info == 0:
        u, info = _POTRS(factor, c, lower=1)
    if info != 0:
        raise ArithmeticError(f"normal equations not solvable (LAPACK info {info})")
    u_star = Control.clamped(u)
    clamped = np.abs(u) > np.abs(u_star.as_array()) + 1e-12
    if clamped.any():
        log.debug("clamped surfaces: %s", clamped.nonzero()[0].tolist())
    resid = p.y_target - p.a - p.b @ u
    sq_resid = resid @ resid
    return AllocationSolution(
        u_star=u_star,
        u_unconstrained=u,
        clamped=clamped,
        objective_value=_objective(p, u, sq_resid),
        residual_norm=math.sqrt(sq_resid),
    )


# ---------------------------------------------------------------------------
# Closed-loop tracking
# ---------------------------------------------------------------------------


@dataclass
class TrackingConfig:
    lambda0: float = 0.01
    lambda1: float = 0.1
    u_trim: Control = field(default_factory=Control)
    u_init: Control = field(default_factory=Control)
    dt: float = 0.02

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless the penalties and the time step are usable."""
        _check_penalties(self.lambda0, self.lambda1)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


@dataclass
class TrackingLog:
    """Per-step record of one closed-loop run; all arrays share length n."""

    t: np.ndarray
    targets: np.ndarray      # (n, 6)
    predicted: np.ndarray    # (n, 6)
    achieved: np.ndarray     # (n, 6)
    controls: np.ndarray     # (n, 4)
    clamped: np.ndarray      # (n, 4) bool

    def tracking_rmse(self) -> float:
        return float(np.sqrt(np.mean((self.achieved - self.targets) ** 2)))


def track_sequence(model, targets, observations, cfg: TrackingConfig, achieved_fn=None) -> TrackingLog:
    """Run the predict-allocate loop over a target wrench sequence.

    `observations` is either a sequence (one per step) or a callable
    (step, u_prev: Control) -> observation, for plants whose sensors respond
    to the deflections. `achieved_fn(step, u: Control) -> Wrench` supplies the
    plant response; without it the achieved column repeats the prediction.
    The previous command threads through as the smoothness reference, using
    the clamped command actually applied. Halts on non-finite state.

    The configuration and the targets are validated here, once; each step
    then checks only that the model output and the achieved wrench are finite.
    """
    if not isinstance(model, (AffineModel, UnstructuredModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    cfg.validate()
    target_mat = np.asarray(
        [t.as_array() if isinstance(t, Wrench) else np.asarray(t, dtype=float) for t in targets]
    )
    if target_mat.ndim != 2 or target_mat.shape[1] != WRENCH_DIM:
        raise ValueError(f"targets must be (n, {WRENCH_DIM})")
    if not np.isfinite(target_mat).all():
        raise ValueError("targets must be finite")
    n = target_mat.shape[0]
    obs_fn = observations if callable(observations) else None
    if obs_fn is None and len(observations) != n:
        raise ValueError("need one observation per target")

    affine = isinstance(model, AffineModel)
    u_trim = cfg.u_trim.as_array()
    lambda0, lambda1 = cfg.lambda0, cfg.lambda1
    u_prev = cfg.u_init  # the Control the callbacks see; u_vec is the same command
    u_vec = u_prev.as_array()
    rows_pred = np.empty((n, WRENCH_DIM))
    rows_ach = np.empty((n, WRENCH_DIM))
    rows_u = np.empty((n, CONTROL_DIM))
    rows_clamp = np.zeros((n, CONTROL_DIM), dtype=bool)
    for k in range(n):
        obs = obs_fn(k, u_prev) if obs_fn is not None else observations[k]
        a, b = predict(model, obs) if affine else affine_at(model, obs, u_vec)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ArithmeticError(f"non-finite model output at step {k}")
        sol = solve(AllocationProblem._prechecked(
            a, b, target_mat[k], u_vec, u_trim, lambda0, lambda1
        ))
        u_prev = sol.u_star
        u_vec = u_prev.as_array()
        rows_u[k] = u_vec
        rows_clamp[k] = sol.clamped
        rows_pred[k] = a + b @ u_vec
        if achieved_fn is not None:
            rows_ach[k] = achieved_fn(k, u_prev).as_array()
        else:
            rows_ach[k] = rows_pred[k]
        if not np.isfinite(rows_ach[k]).all():
            raise ArithmeticError(f"non-finite achieved wrench at step {k}")
    return TrackingLog(
        t=np.arange(n) * cfg.dt,
        targets=target_mat,
        predicted=rows_pred,
        achieved=rows_ach,
        controls=rows_u,
        clamped=rows_clamp,
    )


def save_tracking_csv(path: str | Path, tlog: TrackingLog) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACKING_CSV_HEADER)
        for k in range(tlog.t.size):
            row = (
                [str(tlog.t[k])]
                + [str(v) for v in tlog.targets[k]]
                + [str(v) for v in tlog.predicted[k]]
                + [str(v) for v in tlog.achieved[k]]
                + [str(v) for v in tlog.controls[k]]
                + [str(int(v)) for v in tlog.clamped[k]]
            )
            writer.writerow(row)


def load_tracking_csv(path: str | Path) -> TrackingLog:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACKING_CSV_HEADER:
            raise ValueError(f"unexpected tracking CSV header in {path}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"no data rows in {path}")
    mat = np.asarray(rows, dtype=float)
    return TrackingLog(
        t=mat[:, 0],
        targets=mat[:, 1:7],
        predicted=mat[:, 7:13],
        achieved=mat[:, 13:19],
        controls=mat[:, 19:23],
        clamped=mat[:, 23:27].astype(bool),
    )
