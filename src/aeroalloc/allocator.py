"""Regularized least-squares control allocation.

Given the local affine wrench model y = A + B u, pick the deflection command
that best realizes a target wrench while staying close to the previous
command (smoothness) and to the trim command (damping):

    minimize  ||y - A - B u||^2 + lambda1 ||u - u_prev||^2 + lambda0 ||u - u_trim||^2

With lambda0 + lambda1 > 0 the objective is strictly convex, so the unique
minimizer solves the 4x4 symmetric positive-definite normal equations
Q u = c exactly. Actuator limits are applied after the solve, keeping the
closed form exact and making saturation observable in the logs.

`solve` solves the Q u = c of `build_normal_equations` with one call of
LAPACK's Cholesky solver dposv (potrf then potrs), in the LAPACK numpy itself
links (`blas.numpy_blas_function`), so no process of the pipeline loads
SciPy. It is handed what SciPy's wrapper hands it: Q copied in column-major
order and the lower triangle, so its bits are SciPy's. Only where numpy's
LAPACK has no such symbol (a numpy built on MKL or Accelerate) does the first
solve import SciPy's posv wrapper, which runs the same two routines. A
solution holds only the commands and clamp flags; `objective(p, u)`
evaluates the objective.

Each value is checked once, where it enters: AllocationProblem its parts,
TrackingConfig (frozen) the penalties, dt and the trim and initial commands
(4 finite entries within the actuator limits), `track_sequence` its targets.
Inside the loop, where commands pass as plain (4,) arrays, each step's
AllocationProblem is made without its __init__ checks (`_unchecked`), only
the model's (A, B) and the achieved wrench are checked to be finite, and the
clamp flags are reduced for the debug log only when it is enabled. In a
traced seed-0 C7 loop a step's time is then mostly the model pass (about two
fifths), the small numpy operations of the solve (about a quarter), the
loop's own bookkeeping (about a fifth) and the plant's observation and
response (about an eighth).
"""
from __future__ import annotations

import ctypes
import functools
import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (
    AffineModel,
    CONTROL_DIM,
    CONTROL_LIMIT_DEG,
    UnstructuredModel,
    WRENCH_DIM,
    affine_at,
    predict,
)
from .blas import numpy_blas_function
from .table import write_table

log = logging.getLogger(__name__)

TRACKING_CSV_HEADER = (
    ["t"]
    + [f"target_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + [f"predicted_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + [f"achieved_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + [f"u_{c}" for c in ("la", "ra", "el", "ru")]
    + [f"clamped_{c}" for c in ("la", "ra", "el", "ru")]
)


@functools.cache
def _posv():
    """posv(q, c) -> (u, info): LAPACK dposv on the 4x4 Q, lower triangle, bound on first use.

    numpy's own dposv is called through ctypes on per-process buffers, which
    a lock keeps to one call at a time, and u is returned as a fresh array.
    """
    dposv = numpy_blas_function("dposv_")
    if dposv is None:  # numpy on another LAPACK: SciPy's wrapper runs the same routines
        from scipy.linalg.lapack import dposv as scipy_dposv

        def posv(q, c):
            _, u, info = scipy_dposv(q, c, lower=1)
            return u, info

        return posv
    lapack_int = ctypes.c_int64 if dposv.__name__.endswith("64_") else ctypes.c_int
    # uplo, n, nrhs, a, lda, b, ldb, info, and the hidden length of the uplo string
    dposv.argtypes, dposv.restype = [ctypes.c_void_p] * 8 + [ctypes.c_size_t], None
    uplo, n, nrhs, info = ctypes.c_char(b"L"), lapack_int(CONTROL_DIM), lapack_int(1), lapack_int()
    a, b = np.empty((CONTROL_DIM, CONTROL_DIM)), np.empty(CONTROL_DIM)
    # plain addresses convert about half a microsecond faster per call than byref()
    at = ctypes.addressof
    args = [ctypes.c_void_p(address) for address in (
        at(uplo), at(n), at(nrhs), a.ctypes.data, at(n), b.ctypes.data, at(n), at(info))]
    args.append(ctypes.c_size_t(1))
    lock = threading.Lock()

    def posv(q, c):
        with lock:
            a[...] = q.T  # column-major Q, the copy SciPy's wrapper makes
            b[...] = c
            dposv(*args)
            return b.copy(), info.value

    posv.buffers = uplo, n, nrhs  # `args` holds only their addresses
    return posv


class NotStrictlyConvexError(ValueError):
    """Both control penalties are zero, so the minimizer may not be unique."""


def _vec(value, dim: int, what: str) -> np.ndarray:
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


def _unchecked(cls, **fields):
    """The frozen dataclass `cls` holding `fields`, made without its __init__ checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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


@dataclass(frozen=True)
class AllocationSolution:
    """Closed-form minimizer u_unconstrained and u_star, it clipped to the actuator
    limits, with per-surface clamp flags; u_star is u_unconstrained exactly when
    nothing clamps."""

    u_star: np.ndarray
    u_unconstrained: np.ndarray
    clamped: np.ndarray


_EYE_CONTROL = np.eye(CONTROL_DIM)
_CLAMP_ABOVE = CONTROL_LIMIT_DEG + 1e-12  # a surface whose command exceeds it is clamped


def build_normal_equations(p: AllocationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-stationarity system Q u = c of the allocation objective.

    Q is positive definite because an AllocationProblem has lambda0 + lambda1 > 0.
    Q = 2 (B^T B + (lambda0 + lambda1) I) and c = 2 (B^T (y - A) + lambda1 u_prev
    + lambda0 u_trim) are formed in place, in that order of operations.
    """
    bt = p.b.T
    q = bt @ p.b
    q += (p.lambda0 + p.lambda1) * _EYE_CONTROL
    q *= 2.0
    c = bt @ (p.y_target - p.a)
    c += p.lambda1 * p.u_prev
    c += p.lambda0 * p.u_trim
    c *= 2.0
    return q, c


def objective(p: AllocationProblem, u) -> float:
    u = _vec(u, CONTROL_DIM, "command")
    resid = p.y_target - p.a - p.b @ u
    return float(
        resid @ resid
        + p.lambda1 * ((u - p.u_prev) ** 2).sum()
        + p.lambda0 * ((u - p.u_trim) ** 2).sum()
    )


def solve(p: AllocationProblem) -> AllocationSolution:
    """Unique minimizer via a Cholesky solve of `build_normal_equations`."""
    q, c = build_normal_equations(p)
    if not (np.isfinite(q).all() and np.isfinite(c).all()):
        raise ValueError("normal equations must be finite")
    u, info = _posv()(q, c)
    if info != 0:
        raise ArithmeticError(f"normal equations not solvable (LAPACK info {info})")
    u_star = u.clip(-CONTROL_LIMIT_DEG, CONTROL_LIMIT_DEG)
    # |u| > |u_star| + 1e-12, as u_star is u within the limits and +-limit beyond them
    clamped = np.abs(u) > _CLAMP_ABOVE
    if log.isEnabledFor(logging.DEBUG) and clamped.any():
        log.debug("clamped surfaces: %s", clamped.nonzero()[0].tolist())
    return _unchecked(AllocationSolution, u_star=u_star, u_unconstrained=u, clamped=clamped)


# ---------------------------------------------------------------------------
# Closed-loop tracking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackingConfig:
    """Penalties, commands and time step of a tracking run, checked at construction."""

    lambda0: float = 0.01
    lambda1: float = 0.1
    u_trim: np.ndarray = field(default_factory=lambda: np.zeros(CONTROL_DIM))
    u_init: np.ndarray = field(default_factory=lambda: np.zeros(CONTROL_DIM))
    dt: float = 0.02

    def __post_init__(self) -> None:
        _check_penalties(self.lambda0, self.lambda1)
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        for name in ("u_trim", "u_init"):
            u = _vec(getattr(self, name), CONTROL_DIM, name)
            if np.abs(u).max() > CONTROL_LIMIT_DEG:
                raise ValueError(f"{name} {u} exceeds the +-{CONTROL_LIMIT_DEG:g} deg "
                                 "actuator limit")
            object.__setattr__(self, name, u)


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


def track_sequence(model, targets, observe, cfg: TrackingConfig, achieved_fn=None) -> TrackingLog:
    """Run the predict-allocate loop over a target wrench sequence.

    `observe(step, u_prev)` returns the step's observation, so a plant's
    sensors can respond to the deflections; u_prev is the (4,) command applied
    at the previous step, cfg.u_init at step 0 (a recorded list replays as
    `lambda k, u: obs[k]`). `achieved_fn(step, u)` returns the plant's (6,)
    response to the (4,) command applied at this step; without it the
    achieved column repeats the prediction. The previous command threads
    through as the smoothness reference, using the clamped command actually
    applied. Halts on non-finite state.

    The targets are validated here, once; each step then checks only that the
    model output and the achieved wrench are finite.
    """
    if not isinstance(model, (AffineModel, UnstructuredModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    target_mat = np.array(targets, dtype=float)
    if target_mat.ndim != 2 or target_mat.shape[1] != WRENCH_DIM:
        raise ValueError(f"targets must be (n, {WRENCH_DIM})")
    if not np.isfinite(target_mat).all():
        raise ValueError("targets must be finite")
    n = target_mat.shape[0]

    affine = isinstance(model, AffineModel)
    u_trim, u_prev = cfg.u_trim, cfg.u_init
    lambda0, lambda1 = cfg.lambda0, cfg.lambda1
    rows_pred = np.empty((n, WRENCH_DIM))
    rows_ach = np.empty((n, WRENCH_DIM))
    rows_u = np.empty((n, CONTROL_DIM))
    rows_clamp = np.zeros((n, CONTROL_DIM), dtype=bool)
    for k in range(n):
        obs = observe(k, u_prev)
        a, b = predict(model, obs) if affine else affine_at(model, obs, u_prev)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ArithmeticError(f"non-finite model output at step {k}")
        sol = solve(_unchecked(AllocationProblem, a=a, b=b, y_target=target_mat[k],
                               u_prev=u_prev, u_trim=u_trim, lambda0=lambda0, lambda1=lambda1))
        u_prev = sol.u_star
        rows_u[k] = u_prev
        rows_clamp[k] = sol.clamped
        np.add(a, b @ u_prev, out=rows_pred[k])
        rows_ach[k] = rows_pred[k] if achieved_fn is None else achieved_fn(k, u_prev)
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
    values = np.column_stack([tlog.t, tlog.targets, tlog.predicted, tlog.achieved, tlog.controls])
    rows = (v.tolist() + f.tolist() for v, f in zip(values, tlog.clamped.astype(int)))
    write_table(path, TRACKING_CSV_HEADER, rows)

