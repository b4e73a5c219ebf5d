"""Control-affine wrench model with a soft left/right mirror prior.

The model maps a 13-feature observation (two probe flow estimates plus seven
wing-tap pressures) to the 6-component aerodynamic wrench, affinely in the
four surface deflections:

    y = A(o) + B(o) u

A and B come from two linear heads on a shared tanh backbone, so the affine
structure in u is exact by construction. Training adds a Huber penalty on the
flaperon columns of B that rewards the mirror relationship a symmetric
airframe should exhibit, without forbidding bounded asymmetry.

An unstructured baseline (plain feedforward net on the concatenated
observation and control) lives here too, with its local linearization for
closed-loop allocation. Each model family is one class of `MODEL_KINDS`: it
checks its parts when made, its fields are its file format, `wrench` predicts
with it, and `affine_in_u` says whether that wrench is affine in the command.
"""
from __future__ import annotations

import json
import logging
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import nncore
from .nncore import Network, _as_batch, _check_network, forward, backward
from .probe import FLOW_VALUES
from .table import read_table, write_table

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = "dynmodel-v1"
PROBES = ("probe0", "probe1")  # the airframe's two probes, in observation order
PROBE_FEATURES = len(PROBES) * FLOW_VALUES  # leading observation entries, kept by every variant
WING_TAPS = 7               # trailing observation entries, the wing-surface taps
OBS_DIM = PROBE_FEATURES + WING_TAPS
SURFACES = ("la", "ra", "el", "ru")  # left and right flaperon, elevator, rudder
WRENCH_CHANNELS = ("fx", "fy", "fz", "tx", "ty", "tz")  # forces, then torques, on body axes
CONTROL_DIM = len(SURFACES)
WRENCH_DIM = len(WRENCH_CHANNELS)
CONTROL_LIMIT_DEG = 25.0

DYNAMICS_CSV_HEADER = (
    [f"{value}{i}" for i in range(len(PROBES)) for value in ("Va", "alpha", "beta")]
    + [f"ps{i}" for i in range(WING_TAPS)]
    + [f"d_{s}" for s in SURFACES] + [c.capitalize() for c in WRENCH_CHANNELS]
)

# Parity of each wrench channel (Fx, Fy, Fz, Tx, Ty, Tz) under a left/right mirror.
MIRROR_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
MIRROR_SIGNS.setflags(write=False)
VAL_FRACTION = 0.2  # trailing share of the training rows held out for validation
BATCH_SIZE = 256  # minibatch rows of both trainers
_EYE_WRENCH = np.eye(WRENCH_DIM)  # upstream of the per-output Jacobian rows
_BLOCK_ROWS = 2048  # most rows of one scoring pass (`nncore.by_row_blocks`)


def _feature_count(wing_sensors: bool) -> int:
    """Observation entries a model reads: all of them, or only the probe features."""
    return OBS_DIM if wing_sensors else PROBE_FEATURES


def _finite_or_raise(mat: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise ValueError(f"{what} must be finite; row {bad[0]} is {mat[bad[0]].tolist()}")


@dataclass(frozen=True)
class SymmetryConfig:
    """Mirror prior on the flaperon columns of B.

    The penalty is a Huber loss on the residual `symmetry_residual_matrix(b)`.
    `delta` sets the per-channel Huber threshold, so bounded asymmetry costs
    quadratically and gross asymmetry only linearly. The thresholds are
    checked here once, and `penalty` and `penalty_grad` apply them.
    """

    lambda_sym: float = 0.1
    delta: tuple = (0.5,) * WRENCH_DIM

    def __post_init__(self) -> None:
        delta = tuple(float(d) for d in self.delta)
        object.__setattr__(self, "delta", delta)
        # NaN fails each comparison, so it is rejected along with inf
        if len(delta) != WRENCH_DIM or not all(0.0 < d < np.inf for d in delta):
            raise ValueError(f"delta must be {WRENCH_DIM} positive finite thresholds, got {delta}")
        if not 0.0 <= self.lambda_sym < np.inf:
            raise ValueError(f"lambda_sym must be finite and >= 0, got {self.lambda_sym}")
        object.__setattr__(self, "_delta", np.asarray(delta, dtype=np.float64))
        object.__setattr__(self, "_neg_delta", -self._delta)

    def penalty(self, resid) -> np.ndarray:
        """Per-entry Huber penalty of mirror residuals (..., 6): r^2/2 inside
        |r| <= delta, delta*(|r| - delta/2) outside."""
        r, d = np.asarray(resid, dtype=np.float64), self._delta
        a = np.abs(r)
        return np.where(a <= d, 0.5 * r * r, d * (a - 0.5 * d))

    def penalty_grad(self, resid) -> np.ndarray:
        """d penalty / d resid, the residual clipped to +-delta (np.clip's bits)."""
        return np.minimum(np.maximum(np.asarray(resid, dtype=np.float64), self._neg_delta),
                          self._delta)


def _scaling(mean, std, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Standardization constants of `n` values as float arrays, finite, scales positive."""
    mean, std = np.asarray(mean, dtype=float), np.asarray(std, dtype=float)
    if mean.shape != (n,) or std.shape != (n,):
        raise ValueError(f"{what} scaling constants must have {n} entries")
    if not np.all(std > 0.0):
        raise ValueError(f"{what} scales must be positive")
    for name, values in (("means", mean), ("scales", std)):  # json reads NaN and Infinity
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{what} {name} must be finite; entry {bad[0]} is {values[bad[0]]}")
    return mean, std


class _WrenchModel:
    """A model family: the `kind` its files record, whether its wrench is affine in the
    command (`affine_in_u`: then `predict` gives its own (A, B), whose mirror residual the
    suite reports; else a tracking loop linearizes it with `affine_at`), the wing-tap
    switch, its input rule (`raw_inputs`, and the `scaling` its trainer fits on it) and
    `wrench(obs, u)`, the (n, 6) wrenches of observation rows under (n, 4) command rows."""

    kind: str
    affine_in_u: bool
    wing_sensors: bool

    @property
    def n_features(self) -> int:
        return _feature_count(self.wing_sensors)

    def inputs(self, obs, u=None) -> np.ndarray:
        """The rows the family's first network reads, from plant observation rows (or
        one row) and command rows: its `raw_inputs`, standardized by its `scaling`."""
        mean, std = self.scaling
        raw = self.raw_inputs(_obs_rows(obs), u, self.n_features)
        if len(raw) == 1:  # as a vector: the same bits, past numpy's slower broadcasting
            return ((raw[0] - mean) / std)[None]
        return (raw - mean) / std


@dataclass
class AffineModel(_WrenchModel):
    """Shared backbone with an offset head (A) and an effectiveness head (B).

    Observation features are standardized with constants frozen at training
    time; control inputs stay in degrees so B reads as wrench per degree.
    Models trained without wing sensors consume only the first six features.
    """

    kind = "affine"
    affine_in_u = True
    backbone: Network
    a_head: Network
    b_head: Network
    obs_mean: np.ndarray
    obs_std: np.ndarray
    sym: SymmetryConfig = field(default_factory=SymmetryConfig)
    wing_sensors: bool = True

    def __post_init__(self) -> None:
        width = self.backbone.output_dim
        _check_network(self.backbone, self.n_features, width, "backbone")
        _check_network(self.a_head, width, WRENCH_DIM, "offset head")
        _check_network(self.b_head, width, WRENCH_DIM * CONTROL_DIM, "effectiveness head")
        self.obs_mean, self.obs_std = _scaling(self.obs_mean, self.obs_std, self.n_features,
                                               "feature")

    scaling = property(lambda self: (self.obs_mean, self.obs_std))

    @staticmethod
    def raw_inputs(obs, u, n_features: int) -> np.ndarray:
        return obs[:, :n_features]  # u acts through B

    def wrench(self, obs, u) -> np.ndarray:
        a, b = _affine_terms(self, self.inputs(obs))
        return a + np.einsum("nck,nk->nc", b, u)


@dataclass
class UnstructuredModel(_WrenchModel):
    """Plain feedforward baseline on the concatenated (observation, control)."""

    kind = "unstructured"
    affine_in_u = False
    net: Network
    in_mean: np.ndarray
    in_std: np.ndarray
    wing_sensors: bool = True

    def __post_init__(self) -> None:
        n_in = self.n_features + CONTROL_DIM
        _check_network(self.net, n_in, WRENCH_DIM, "network")
        self.in_mean, self.in_std = _scaling(self.in_mean, self.in_std, n_in, "input")

    scaling = property(lambda self: (self.in_mean, self.in_std))

    @staticmethod
    def raw_inputs(obs, u, n_features: int) -> np.ndarray:
        return np.concatenate([obs[:, :n_features], u], axis=1)

    def wrench(self, obs, u) -> np.ndarray:
        return forward(self.net, self.inputs(obs, u))


# Each model family by the `kind` its files record.
MODEL_KINDS = {cls.kind: cls for cls in (AffineModel, UnstructuredModel)}


def _model_class(model) -> type:
    if type(model) not in MODEL_KINDS.values():
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return type(model)


def _obs_rows(obs) -> np.ndarray:
    """Observation rows (n, OBS_DIM); one observation may come as a vector."""
    mat = np.asarray(obs, dtype=float)
    return _as_batch(mat[None] if mat.ndim == 1 else mat, OBS_DIM, "observation")


def _paired_rows(obs, *rows) -> tuple:
    """Observation rows and the command (then wrench) rows paired with them row for row."""
    paired = [_as_batch(obs, OBS_DIM, "observation")]
    n = paired[0].shape[0]
    for mat, dim, what in zip(rows, (CONTROL_DIM, WRENCH_DIM), ("command", "wrench")):
        paired.append(_as_batch(mat, dim, what))
        if paired[-1].shape[0] != n:
            raise ValueError(f"{n} observation rows but {paired[-1].shape[0]} {what} rows")
    return tuple(paired)


def _affine_terms(model: AffineModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of standardized feature rows (`model.inputs`), or of one row as a
    vector. The model checked its widths when made, so the passes run on the kernel."""
    h = nncore._activations(model.backbone, x)[-1]
    a = nncore._activations(model.a_head, h)[-1]
    b = nncore._activations(model.b_head, h)[-1]
    return a, b.reshape(x.shape[:-1] + (WRENCH_DIM, CONTROL_DIM))


def predict_batch(model: AffineModel, obs) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) for a batch: A is (n, 6), B is (n, 6, 4), physical units."""
    return nncore.by_row_blocks(lambda o: _affine_terms(model, model.inputs(o)), _BLOCK_ROWS,
                                _obs_rows(obs))


def predict(model: AffineModel, obs) -> tuple[np.ndarray, np.ndarray]:
    """Offset vector A(o) (6,) and effectiveness matrix B(o) (6, 4), from one
    pass of the observation through `model.inputs`."""
    x = model.inputs(obs)
    if x.shape[0] != 1:  # before the network passes
        raise ValueError("predict takes a single observation; use predict_batch")
    return _affine_terms(model, x[0])


def symmetry_residual_matrix(b: np.ndarray) -> np.ndarray:
    """Per-channel flaperon mirror residual B[:,0] + MIRROR_SIGNS * B[:,1]."""
    return b[..., 0] + MIRROR_SIGNS * b[..., 1]


def symmetry_residual_norm(model: AffineModel, obs) -> float:
    """Mean euclidean norm of the flaperon mirror residual over observations."""
    _, b = predict_batch(model, obs)
    resid = symmetry_residual_matrix(b)
    return float(np.mean(np.linalg.norm(resid, axis=1)))


def _forward_heads(backbone, a_head, b_head, x, u, y):
    """Wrench residual pred - y, the B batch (n, 6, 4), and each net's activations."""
    acts_bb = forward(backbone, x, activations=True)
    acts_a = forward(a_head, acts_bb[-1], activations=True)
    acts_b = forward(b_head, acts_bb[-1], activations=True)
    b = acts_b[-1].reshape(-1, WRENCH_DIM, CONTROL_DIM)
    err = acts_a[-1] + np.einsum("nck,nk->nc", b, u) - y
    return err, b, (acts_bb, acts_a, acts_b)


def _batch_loss(err, b, sym: SymmetryConfig) -> float:
    """Mean squared wrench error plus mean mirror penalty."""
    loss = float(np.mean(err**2))
    if sym.lambda_sym > 0.0:
        resid = symmetry_residual_matrix(b)
        loss += float(sym.lambda_sym * np.sum(sym.penalty(resid)) / err.shape[0])
    return loss


def _batch_tapes(nets, u, err, b, acts, sym: SymmetryConfig, out=(None, None, None)):
    """(backbone, A-head, B-head) tapes of `_batch_loss`, reusing the forward pass.

    Upstreams carry the 1/n factors so the tapes hold gradients of the
    mean-form loss. The gradients go into `out`'s three tapes, if given.
    """
    backbone, a_head, b_head = nets
    acts_bb, acts_a, acts_b = acts
    n = err.shape[0]
    up_a = (2.0 / err.size) * err
    up_b = up_a[:, :, None] * u[:, None, :]
    if sym.lambda_sym > 0.0:
        resid = symmetry_residual_matrix(b)
        g = (sym.lambda_sym / n) * sym.penalty_grad(resid)
        up_b[:, :, 0] += g
        up_b[:, :, 1] += g * MIRROR_SIGNS
    tape_a = backward(a_head, up_a, acts_a, out=out[1])
    tape_b = backward(b_head, up_b.reshape(n, -1), acts_b, out=out[2])
    tape_bb = backward(backbone, tape_a.input_grad + tape_b.input_grad, acts_bb,
                       with_input_grad=False, out=out[0])
    return tape_bb, tape_a, tape_b


def _model_batch(model: AffineModel, obs, u, y):
    """Standardized features, control rows and wrench targets of one batch."""
    obs, u, y = _paired_rows(obs, u, y)
    if obs.shape[0] == 0:
        raise ValueError("training loss needs a non-empty batch")
    return model.inputs(obs), u, y


def _model_nets(model: AffineModel):
    return model.backbone, model.a_head, model.b_head


def training_loss(model: AffineModel, obs, u, y) -> float:
    """Mean squared wrench error plus the batch-mean mirror penalty."""
    err, b, _ = _forward_heads(*_model_nets(model), *_model_batch(model, obs, u, y))
    return _batch_loss(err, b, model.sym)


def training_gradients(model: AffineModel, obs, u, y):
    """(loss, flat parameter gradient) of training_loss at the current params.

    Parameter order matches model_flat_params: backbone, A head, B head.
    """
    nets = _model_nets(model)
    x, u, y = _model_batch(model, obs, u, y)
    err, b, acts = _forward_heads(*nets, x, u, y)
    tapes = _batch_tapes(nets, u, err, b, acts, model.sym)
    return _batch_loss(err, b, model.sym), nncore.flat_grads(*tapes)


def model_flat_params(model: AffineModel) -> np.ndarray:
    return nncore.flat_params(*_model_nets(model))


def set_model_flat_params(model: AffineModel, vec: np.ndarray) -> None:
    nncore.set_flat_params(_model_nets(model), vec)


@dataclass
class DynamicsTrainConfig:
    seed: int = 0
    hidden: tuple = (64, 64)
    epochs: int = 200
    lr: float = 1e-3
    sym: SymmetryConfig = field(default_factory=SymmetryConfig)
    wing_sensors: bool = True

    def __post_init__(self) -> None:
        nncore._check_budget(self.epochs, self.hidden)


def _dataset_arrays(dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    obs, u, y = dataset
    obs, u, y = _paired_rows(obs, u, y)
    for name, mat in (("observations", obs), ("controls", u), ("wrenches", y)):
        _finite_or_raise(mat, name)
    return obs, u, y


def _check_holdout_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:  # NaN fails the comparison as well
        raise ValueError(f"holdout_fraction must be in (0, 1), got {fraction}")


def block_split(dataset, holdout_fraction: float):
    """Contiguous leading/trailing split; rows stay in time order so adjacent
    near-duplicate timesteps cannot straddle the boundary."""
    obs, u, y = _dataset_arrays(dataset)
    _check_holdout_fraction(holdout_fraction)
    n = obs.shape[0]
    n_hold = max(1, int(round(n * holdout_fraction)))
    if n_hold >= n:
        raise ValueError("holdout would consume the whole dataset")
    cut = n - n_hold
    return (obs[:cut], u[:cut], y[:cut]), (obs[cut:], u[cut:], y[cut:])


def _training_rows(dataset):
    """A trainer's training rows and validation block, None when nothing is
    held out. Warns, at the trainer's caller, of a dataset too small or too
    still to pin down the model's dependence on the controls."""
    obs, u, y = _dataset_arrays(dataset)
    if obs.shape[0] < 10:
        raise ValueError(f"dataset too small to fit ({obs.shape[0]} rows)")
    if obs.shape[0] < 100:
        warnings.warn(
            f"only {obs.shape[0]} samples; expect a poorly constrained fit", stacklevel=3
        )
    if float(np.max(u.std(axis=0))) < 1e-9:
        warnings.warn(
            "control inputs are constant across the dataset; "
            "effectiveness columns are unidentifiable", stacklevel=3,
        )
    if obs.shape[0] >= 20:
        return block_split((obs, u, y), VAL_FRACTION)
    return (obs, u, y), None


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(n)]


def train_dynamics(dataset, cfg: DynamicsTrainConfig, history: list | None = None) -> AffineModel:
    """Fit the affine model on (observations, controls, wrenches) arrays.

    Deterministic for a fixed seed and dataset order. Targets are standardized
    per channel during optimization and the scaling is folded back into the
    linear heads, so the returned model emits newtons and newton meters.
    If `history` is given, the full-training-set loss is appended per epoch.
    """
    (obs_tr, u_tr, y_tr), val = _training_rows(dataset)

    raw = AffineModel.raw_inputs(obs_tr, u_tr, _feature_count(cfg.wing_sensors))
    y_mean, y_std = nncore.standardize_stats(y_tr)

    seed_bb, seed_a, seed_b, seed_batch = _child_seeds(cfg.seed, 4)
    width = cfg.hidden[-1]
    backbone = nncore.init_network((raw.shape[1], *cfg.hidden), seed_bb, output_activation="tanh")
    a_head = nncore.init_network((width, WRENCH_DIM), seed_a)
    b_head = nncore.init_network((width, WRENCH_DIM * CONTROL_DIM), seed_b)
    nets = (backbone, a_head, b_head)
    model = AffineModel(*nets, *nncore.standardize_stats(raw), sym=cfg.sym,
                        wing_sensors=cfg.wing_sensors)
    opt = nncore.init_optimizer(nets, lr=cfg.lr)

    # Optimize with deflections rescaled to fractions of full throw, so the
    # effectiveness entries sit at order one where the mirror penalty has
    # leverage against the data term; both scalings fold back out below.
    x_tr = model.inputs(obs_tr)
    us_tr = u_tr / CONTROL_LIMIT_DEG
    yt_tr = (y_tr - y_mean) / y_std

    def minibatch_grads(x, u, y):
        err, b, acts = _forward_heads(*nets, x, u, y)
        _batch_tapes(nets, u, err, b, acts, cfg.sym, opt.tapes)

    def full_loss():
        err, b, _ = _forward_heads(*nets, x_tr, us_tr, yt_tr)
        return _batch_loss(err, b, cfg.sym)

    nncore.fit(
        opt, (x_tr, us_tr, yt_tr), BATCH_SIZE, cfg.epochs,
        np.random.default_rng(seed_batch), minibatch_grads, full_loss, history,
    )

    nncore.fold_output_scaling(a_head, y_std, y_mean)
    nncore.fold_output_scaling(
        b_head,
        np.repeat(y_std, CONTROL_DIM) / CONTROL_LIMIT_DEG,
        np.zeros(WRENCH_DIM * CONTROL_DIM),
    )
    return _logged_validation(model, val)


def _logged_validation(model, val):
    """`model`, its RMSE on the held-out rows `val` (if any) logged when INFO is on."""
    if val is not None and log.isEnabledFor(logging.INFO):
        log.info("validation wrench rmse %.4f", eval_rmse(model, val))
    return model


def predict_wrench_batch(model, obs, u) -> np.ndarray:
    """(n, 6) predicted wrenches of a model of any family, one pass per row
    block as in `predict_batch`. Observations and commands pair up row by row."""
    wrench = _model_class(model).wrench
    (y,) = nncore.by_row_blocks(lambda o, v: (wrench(model, o, v),), _BLOCK_ROWS,
                                *_paired_rows(obs, u))
    return y


def _squared_errors(model, dataset) -> np.ndarray:
    """(n, 6) squared wrench errors of the model's predictions on a dataset."""
    obs, u, y = _dataset_arrays(dataset)
    if obs.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return (predict_wrench_batch(model, obs, u) - y) ** 2


def eval_rmse(model, dataset) -> float:
    """Single RMSE over all samples and all six wrench channels.

    Forces and torques are pooled, so the number is a comparative aggregate
    rather than a physical quantity.
    """
    return float(np.sqrt(np.mean(_squared_errors(model, dataset))))


def per_channel_rmse(model, dataset) -> np.ndarray:
    return np.sqrt(np.mean(_squared_errors(model, dataset), axis=0))


# ---------------------------------------------------------------------------
# Unstructured baseline
# ---------------------------------------------------------------------------


def train_unstructured(
    dataset, cfg: DynamicsTrainConfig, history: list | None = None
) -> UnstructuredModel:
    """Fit the baseline net on the same arrays train_dynamics takes.

    Shares the config type; the mirror penalty does not apply here and
    cfg.sym is ignored.
    """
    (obs_tr, u_tr, y_tr), val = _training_rows(dataset)

    raw = UnstructuredModel.raw_inputs(obs_tr, u_tr, _feature_count(cfg.wing_sensors))
    y_mean, y_std = nncore.standardize_stats(y_tr)

    seed_net, seed_batch = _child_seeds(cfg.seed, 2)
    net = nncore.init_network((raw.shape[1], *cfg.hidden, WRENCH_DIM), seed_net)
    model = UnstructuredModel(net, *nncore.standardize_stats(raw), wing_sensors=cfg.wing_sensors)
    opt = nncore.init_optimizer(net, lr=cfg.lr)

    x_tr = model.inputs(obs_tr, u_tr)
    yt_tr = (y_tr - y_mean) / y_std

    def minibatch_grads(x, y):
        acts = forward(net, x, activations=True)
        err = acts[-1] - y
        backward(net, (2.0 / err.size) * err, acts, with_input_grad=False, out=opt.tapes[0])

    def full_loss():
        return float(np.mean((forward(net, x_tr) - yt_tr) ** 2))

    nncore.fit(
        opt, (x_tr, yt_tr), BATCH_SIZE, cfg.epochs, np.random.default_rng(seed_batch),
        minibatch_grads, full_loss, history,
    )

    nncore.fold_output_scaling(net, y_std, y_mean)
    return _logged_validation(model, val)


def affine_at(model: UnstructuredModel, obs, u_ref) -> tuple[np.ndarray, np.ndarray]:
    """Exact first-order expansion of the baseline around u_ref.

    Returns (A, B) with B the jacobian of the net output with respect to the
    physical control input, so the allocator can treat the baseline like an
    affine model. Exact at u_ref, approximate elsewhere.
    """
    obs = np.asarray(obs, dtype=float)  # one row is (k,) or (1, k); `inputs` shapes it
    if obs.ndim != 1 and obs.shape[:-1] != (1,):
        raise ValueError("affine_at linearizes around a single observation")
    u_vec = np.asarray(u_ref, dtype=float)
    if u_vec.shape != (CONTROL_DIM,):
        raise ValueError(f"command u_ref must have shape ({CONTROL_DIM},), got {u_vec.shape}")
    x = model.inputs(obs, u_vec[None])  # one row
    acts = nncore._activations(model.net, x.repeat(WRENCH_DIM, axis=0))
    grad = nncore._backprop(model.net, _EYE_WRENCH, acts)
    jac = grad[:, -CONTROL_DIM:] / model.in_std[-CONTROL_DIM:]
    # A 1-row pass for y0: reading it off the 6-row pass would move C7, as the two
    # differ in the last bits for 1998 of 2000 random inputs on the C7 baseline net.
    y0 = nncore._activations(model.net, x[0])[-1]
    return y0 - jac.dot(u_vec), jac


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _network_from_json(value, name: str) -> Network:
    if not isinstance(value, dict):
        raise ValueError(f"the model's {name!r} must be a JSON object, "
                         f"got {type(value).__name__}")
    return nncore.network_from_dict(value)


# (encode, decode) of a model field by its annotation; decode also takes the field's name
_FIELD_JSON = {
    "Network": (nncore.network_to_dict, _network_from_json),
    "np.ndarray": (np.ndarray.tolist, lambda value, _: np.asarray(value, dtype=float)),
    # older files also carry "signs", which MIRROR_SIGNS now fixes
    "SymmetryConfig": (lambda sym: {"lambda": sym.lambda_sym, "delta": list(sym.delta)},
                       lambda value, _: SymmetryConfig(float(value["lambda"]),
                                                       tuple(value["delta"]))),
    "bool": (bool, lambda value, _: bool(value)),
}


def dynamics_model_to_dict(model) -> dict:
    doc = {"format": MODEL_FORMAT_VERSION, "kind": _model_class(model).kind}
    for f in fields(model):
        doc[f.name] = _FIELD_JSON[f.type][0](getattr(model, f.name))
    return doc


def dynamics_model_from_dict(doc: dict):
    if doc.get("format") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    cls = MODEL_KINDS.get(doc.get("kind"))
    if cls is None:
        raise ValueError(f"unknown model kind {doc.get('kind')!r}")
    return cls(**{f.name: _FIELD_JSON[f.type][1](doc[f.name], f.name) for f in fields(cls)})


def save_dynamics_model(model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dynamics_model_to_dict(model), sort_keys=True, indent=1))


def load_dynamics_model(path: str | Path):
    return nncore.load_json(path, dynamics_model_from_dict, "model")


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------


def save_dynamics_csv(path: str | Path, dataset) -> None:
    rows = (o.tolist() + u.tolist() + y.tolist() for o, u, y in zip(*_dataset_arrays(dataset)))
    write_table(path, DYNAMICS_CSV_HEADER, rows)


def load_dynamics_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mat = read_table(path, DYNAMICS_CSV_HEADER)
    return mat[:, :OBS_DIM], mat[:, OBS_DIM:OBS_DIM + CONTROL_DIM], mat[:, OBS_DIM + CONTROL_DIM:]
