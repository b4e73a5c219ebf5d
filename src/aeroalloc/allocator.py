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

Each value is checked once, where it enters, and kept as a read-only copy:
TrackingConfig (frozen) the penalties and the trim command (4 finite entries
within the actuator limits), forming (lambda0 + lambda1) I and lambda0 u_trim
there; AllocationProblem its parts; `track_sequence` its targets (one row or
more); and both, by one check, that `cfg` is a TrackingConfig. Runs step at
`DT`. Each step's (A, B) comes from `predict` when the model's family is affine
in the command (`affine_in_u`), else from `affine_at` at the previous command.
Inside the loop each step's AllocationProblem is made without checks or copies
(`_unchecked`) and holds the run's config; only the model's (A, B) and the
achieved wrench are checked, by `_all_finite` (a count in C); `solve` clamps
with np.minimum/np.maximum; and the clamp flags are reduced for the debug log
only when enabled. In a traced seed-0 C7 loop a step's time is the model pass
(44 %), the solve (23 %), the loop's own bookkeeping (19 %) and the plant's
observation and response (14 %); a one-row pass runs on its row as a vector.
"""
from __future__ import annotations

import ctypes
import functools
import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (CONTROL_DIM, CONTROL_LIMIT_DEG, SURFACES, WRENCH_CHANNELS, WRENCH_DIM,
                       _model_class, affine_at, predict)
from .blas import numpy_blas_function, numpy_c_function
from .table import write_table

log = logging.getLogger(__name__)

DT = 0.02  # s, the time step of every tracking run

TRACKING_CSV_HEADER = (
    ["t"]
    + [f"{what}_{c}" for what in ("target", "predicted", "achieved") for c in WRENCH_CHANNELS]
    + [f"{what}_{s}" for what in ("u", "clamped") for s in SURFACES]
)


@functools.cache
def _posv():
    """posv(q, c) -> (u, info): LAPACK dposv on the 4x4 Q, lower triangle, bound on first use.

    numpy's own dposv is called through ctypes on per-process buffers, which
    a lock keeps to one call at a time, and u is returned as a fresh array.
    """
    dposv = numpy_blas_function("dposv_")
    if dposv is None:  # numpy on another LAPACK: SciPy's wrapper runs the same routines
        try:
            from scipy.linalg.lapack import dposv as scipy_dposv
        except ImportError as exc:
            raise ImportError("numpy's LAPACK has no dposv, and the fallback needs SciPy: "
                              "pip install 'aeroalloc[scipy]'") from exc

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


_count_nonzero = numpy_c_function("count_nonzero")  # np.count_nonzero past its Python wrapper


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite, counted in C (`ndarray.all` runs numpy's
    Python-level reduction wrapper)."""
    return _count_nonzero(np.isfinite(x)) == x.size


def _vec(value, dim: int, what: str) -> np.ndarray:
    """A read-only float copy of value, checked to hold `dim` finite entries."""
    vec = np.array(value, dtype=float)
    if vec.shape != (dim,):
        raise ValueError(f"{what} must have {dim} entries, got shape {vec.shape}")
    if not _all_finite(vec):
        raise ValueError(f"{what} must be finite")
    vec.flags.writeable = False
    return vec


def _unchecked(cls, **fields):
    """The frozen dataclass `cls` holding `fields`, made without its __init__ checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


_EYE_CONTROL = np.eye(CONTROL_DIM)


@dataclass(frozen=True)
class TrackingConfig:
    """Penalties and trim command, checked and formed once, when made."""

    lambda0: float = 0.01
    lambda1: float = 0.1
    u_trim: np.ndarray = field(default_factory=lambda: np.zeros(CONTROL_DIM))

    def __post_init__(self) -> None:
        lambda0, lambda1 = self.lambda0, self.lambda1
        if not (0.0 <= lambda0 < np.inf and 0.0 <= lambda1 < np.inf):  # NaN fails as well
            raise ValueError(f"penalty weights must be finite and >= 0, got {lambda0}, {lambda1}")
        if lambda0 + lambda1 <= 0.0:
            raise NotStrictlyConvexError(
                "lambda0 + lambda1 must be positive for a unique minimizer")
        u = _vec(self.u_trim, CONTROL_DIM, "u_trim")
        if np.abs(u).max() > CONTROL_LIMIT_DEG:
            raise ValueError(f"u_trim {u} exceeds the +-{CONTROL_LIMIT_DEG:g} deg actuator limit")
        object.__setattr__(self, "u_trim", u)
        # the normal equations' run constants, read by every problem that holds this config;
        # lambda1 per surface, as a ufunc on two equal shapes runs faster than with a scalar
        q_penalty, c_trim = (lambda0 + lambda1) * _EYE_CONTROL, lambda0 * self.u_trim
        c_smooth = np.full(CONTROL_DIM, lambda1, dtype=float)
        q_penalty.flags.writeable = c_trim.flags.writeable = c_smooth.flags.writeable = False
        self.__dict__.update(_q_penalty=q_penalty, _c_trim=c_trim, _c_smooth=c_smooth)


def _check_config(cfg) -> None:
    if not isinstance(cfg, TrackingConfig):
        raise TypeError(f"cfg must be a TrackingConfig, got {type(cfg).__name__}")


@dataclass(frozen=True)
class AllocationProblem:
    """One allocation step: local model (a, b), target, u_prev and the config."""

    a: np.ndarray           # 6-vector offset wrench
    b: np.ndarray           # 6x4 effectiveness matrix
    y_target: np.ndarray    # 6-vector desired wrench
    u_prev: np.ndarray = field(default_factory=lambda: np.zeros(CONTROL_DIM))
    cfg: TrackingConfig = TrackingConfig()

    def __post_init__(self) -> None:
        _check_config(self.cfg)
        object.__setattr__(self, "a", _vec(self.a, WRENCH_DIM, "offset wrench"))
        object.__setattr__(self, "y_target", _vec(self.y_target, WRENCH_DIM, "target wrench"))
        object.__setattr__(self, "u_prev", _vec(self.u_prev, CONTROL_DIM, "previous command"))
        b = np.array(self.b, dtype=float)
        if b.shape != (WRENCH_DIM, CONTROL_DIM):
            raise ValueError(f"effectiveness matrix must be {WRENCH_DIM}x{CONTROL_DIM}")
        if not _all_finite(b):
            raise ValueError("effectiveness matrix must be finite")
        b.flags.writeable = False
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class AllocationSolution:
    """Closed-form minimizer u_unconstrained and u_star, it clipped to the actuator
    limits, with per-surface clamp flags; u_star is u_unconstrained exactly when
    nothing clamps."""

    u_star: np.ndarray
    u_unconstrained: np.ndarray
    clamped: np.ndarray


# the actuator limits, and the command beyond which a surface is clamped, per surface:
# numpy runs a ufunc on two equal shapes faster than on an array and a scalar
_LOWER, _UPPER, _CLAMP_ABOVE = (np.full(CONTROL_DIM, v) for v in (
    -CONTROL_LIMIT_DEG, CONTROL_LIMIT_DEG, CONTROL_LIMIT_DEG + 1e-12))


def build_normal_equations(p: AllocationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-stationarity system Q u = c of the allocation objective.

    Q is positive definite because an AllocationProblem has lambda0 + lambda1 > 0.
    Q = 2 (B^T B + (lambda0 + lambda1) I) and c = 2 (B^T (y - A) + lambda1 u_prev
    + lambda0 u_trim) are formed in place, in that order of operations.
    """
    cfg, bt = p.cfg, p.b.T
    q = bt.dot(p.b)  # ndarray.dot: `@`'s bits at about half its call cost
    q += cfg._q_penalty
    q += q  # x + x is 2.0 * x exactly, and a ufunc on equal shapes is the faster
    c = bt.dot(p.y_target - p.a)
    c += cfg._c_smooth * p.u_prev
    c += cfg._c_trim
    c += c
    return q, c


def objective(p: AllocationProblem, u) -> float:
    u = _vec(u, CONTROL_DIM, "command")
    resid = p.y_target - p.a - p.b @ u
    cfg = p.cfg
    return float(
        resid @ resid
        + cfg.lambda1 * ((u - p.u_prev) ** 2).sum()
        + cfg.lambda0 * ((u - cfg.u_trim) ** 2).sum()
    )


def solve(p: AllocationProblem) -> AllocationSolution:
    """Unique minimizer via a Cholesky solve of `build_normal_equations`."""
    q, c = build_normal_equations(p)
    if not (_all_finite(q) and _all_finite(c)):
        raise ValueError("normal equations must be finite")
    u, info = _posv()(q, c)
    if info != 0:
        raise ArithmeticError(f"normal equations not solvable (LAPACK info {info})")
    u_star = np.minimum(np.maximum(u, _LOWER), _UPPER)  # u.clip's bits
    # |u| > |u_star| + 1e-12, as u_star is u within the limits and +-limit beyond them
    clamped = np.abs(u) > _CLAMP_ABOVE
    if log.isEnabledFor(logging.DEBUG) and clamped.any():
        log.debug("clamped surfaces: %s", clamped.nonzero()[0].tolist())
    return _unchecked(AllocationSolution, u_star=u_star, u_unconstrained=u, clamped=clamped)


# ---------------------------------------------------------------------------
# Closed-loop tracking
# ---------------------------------------------------------------------------


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


def track_sequence(model, targets, observe, cfg: TrackingConfig, achieved_fn) -> TrackingLog:
    """Run the predict-allocate loop over a target wrench sequence.

    `observe(step, u_prev)` returns the step's observation, so a plant's
    sensors can respond to the deflections; u_prev is the (4,) command applied
    at the previous step, the zero command at step 0 (a recorded list replays
    as `lambda k, u: obs[k]`). `achieved_fn(step, u)` returns the plant's (6,)
    response to the (4,) command applied at this step. The previous command
    threads through as the smoothness reference, using the clamped command
    actually applied. Halts on non-finite state.

    The targets are validated here, once; each step then checks only that the
    model output and the achieved wrench are finite.
    """
    _check_config(cfg)
    affine = _model_class(model).affine_in_u
    target_mat = np.array(targets, dtype=float)
    if target_mat.ndim != 2 or target_mat.shape[1] != WRENCH_DIM:
        raise ValueError(f"targets must be (n, {WRENCH_DIM})")
    n = target_mat.shape[0]
    if n == 0:
        raise ValueError(f"targets must have at least one row, got {n}")
    if not _all_finite(target_mat):
        raise ValueError("targets must be finite")

    u_prev = np.zeros(CONTROL_DIM)
    rows_pred = np.empty((n, WRENCH_DIM))
    rows_ach = np.empty((n, WRENCH_DIM))
    rows_u = np.empty((n, CONTROL_DIM))
    rows_clamp = np.zeros((n, CONTROL_DIM), dtype=bool)
    for k in range(n):
        obs = observe(k, u_prev)
        a, b = predict(model, obs) if affine else affine_at(model, obs, u_prev)
        if not (_all_finite(a) and _all_finite(b)):
            raise ArithmeticError(f"non-finite model output at step {k}")
        sol = solve(_unchecked(AllocationProblem, a=a, b=b, y_target=target_mat[k],
                               u_prev=u_prev, cfg=cfg))
        u_prev = sol.u_star
        rows_u[k] = u_prev
        rows_clamp[k] = sol.clamped
        np.add(a, b.dot(u_prev), rows_pred[k])
        rows_ach[k] = achieved_fn(k, u_prev)
        if not _all_finite(rows_ach[k]):
            raise ArithmeticError(f"non-finite achieved wrench at step {k}")
    return TrackingLog(
        t=np.arange(n) * DT,
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

