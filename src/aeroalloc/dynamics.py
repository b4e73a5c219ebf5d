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
observation and control) lives here too, together with its local
linearization used for closed-loop allocation.
"""
from __future__ import annotations

import json
import logging
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nncore
from .nncore import Network, forward, backward, huber, huber_grad
from .table import read_table, write_table

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = "dynmodel-v1"
OBS_DIM = 13
PROBE_FEATURES = 6          # leading observation entries, kept by every variant
CONTROL_DIM = 4
WRENCH_DIM = 6
CONTROL_LIMIT_DEG = 25.0

DYNAMICS_CSV_HEADER = (
    ["Va0", "alpha0", "beta0", "Va1", "alpha1", "beta1"]
    + [f"ps{i}" for i in range(7)]
    + ["d_la", "d_ra", "d_el", "d_ru", "Fx", "Fy", "Fz", "Tx", "Ty", "Tz"]
)

DEFAULT_SIGNS = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)
_EYE_WRENCH = np.eye(WRENCH_DIM)  # upstream of the per-output Jacobian rows


def _finite_or_raise(value: np.ndarray, what: str) -> None:
    if not np.isfinite(value).all():
        raise ValueError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class SymmetryConfig:
    """Mirror prior on the flaperon columns of B.

    `signs` encodes which wrench channels flip under a left/right mirror; the
    residual B[:,0] + signs * B[:,1] is zero for a perfectly mirrored pair.
    `delta` sets the per-channel Huber threshold, so bounded asymmetry costs
    quadratically and gross asymmetry only linearly.
    """

    signs: tuple = DEFAULT_SIGNS
    lambda_sym: float = 0.1
    delta: tuple = (0.5,) * WRENCH_DIM

    def __post_init__(self) -> None:
        signs = tuple(float(s) for s in self.signs)
        delta = tuple(float(d) for d in self.delta)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "delta", delta)
        if len(signs) != WRENCH_DIM or any(s not in (1.0, -1.0) for s in signs):
            raise ValueError(f"signs must be {WRENCH_DIM} entries of +-1, got {signs}")
        if len(delta) != WRENCH_DIM or any(d <= 0.0 for d in delta):
            raise ValueError(f"delta must be {WRENCH_DIM} positive thresholds, got {delta}")
        if self.lambda_sym < 0.0:
            raise ValueError("lambda_sym must be >= 0")

    def signs_array(self) -> np.ndarray:
        return np.asarray(self.signs, dtype=float)

    def delta_array(self) -> np.ndarray:
        return np.asarray(self.delta, dtype=float)


@dataclass
class AffineModel:
    """Shared backbone with an offset head (A) and an effectiveness head (B).

    Observation features are standardized with constants frozen at training
    time; control inputs stay in degrees so B reads as wrench per degree.
    Models trained without wing sensors consume only the first six features.
    """

    backbone: Network
    a_head: Network
    b_head: Network
    obs_mean: np.ndarray
    obs_std: np.ndarray
    sym: SymmetryConfig = field(default_factory=SymmetryConfig)
    wing_sensors: bool = True

    def __post_init__(self) -> None:
        self.obs_mean = np.asarray(self.obs_mean, dtype=float)
        self.obs_std = np.asarray(self.obs_std, dtype=float)
        n_feat = OBS_DIM if self.wing_sensors else PROBE_FEATURES
        if self.backbone.input_dim != n_feat:
            raise ValueError(
                f"backbone expects {self.backbone.input_dim} inputs, "
                f"wing_sensors={self.wing_sensors} implies {n_feat}"
            )
        width = self.backbone.output_dim
        if self.a_head.input_dim != width or self.b_head.input_dim != width:
            raise ValueError("heads must consume the backbone output")
        if self.a_head.output_dim != WRENCH_DIM:
            raise ValueError(f"offset head must emit {WRENCH_DIM} values")
        if self.b_head.output_dim != WRENCH_DIM * CONTROL_DIM:
            raise ValueError(f"effectiveness head must emit {WRENCH_DIM * CONTROL_DIM} values")
        if self.obs_mean.shape != (n_feat,) or self.obs_std.shape != (n_feat,):
            raise ValueError("normalization constants must match the feature count")
        if np.any(self.obs_std <= 0.0):
            raise ValueError("feature scales must be positive")

    @property
    def n_features(self) -> int:
        return OBS_DIM if self.wing_sensors else PROBE_FEATURES


@dataclass
class UnstructuredModel:
    """Plain feedforward baseline on the concatenated (observation, control)."""

    net: Network
    in_mean: np.ndarray
    in_std: np.ndarray
    wing_sensors: bool = True

    def __post_init__(self) -> None:
        self.in_mean = np.asarray(self.in_mean, dtype=float)
        self.in_std = np.asarray(self.in_std, dtype=float)
        n_in = self.n_features + CONTROL_DIM
        if self.net.input_dim != n_in:
            raise ValueError(
                f"network expects {self.net.input_dim} inputs, "
                f"wing_sensors={self.wing_sensors} implies {n_in}"
            )
        if self.net.output_dim != WRENCH_DIM:
            raise ValueError(f"network must emit {WRENCH_DIM} values")
        if self.in_mean.shape != (n_in,) or self.in_std.shape != (n_in,):
            raise ValueError("normalization constants must match the input size")
        if np.any(self.in_std <= 0.0):
            raise ValueError("input scales must be positive")

    @property
    def n_features(self) -> int:
        return OBS_DIM if self.wing_sensors else PROBE_FEATURES


def _obs_matrix(value, n_features: int) -> np.ndarray:
    """Observation(s) -> (n, n_features) float matrix, slicing off wing taps
    for models that do not use them."""
    mat = np.asarray(value, dtype=float)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2 or mat.shape[1] < n_features:
        raise ValueError(f"observations must have at least {n_features} columns")
    return mat[:, :n_features]


def _control_matrix_rows(value) -> np.ndarray:
    mat = np.asarray(value, dtype=float)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2 or mat.shape[1] != CONTROL_DIM:
        raise ValueError(f"controls must have {CONTROL_DIM} columns")
    return mat


def predict_batch(model: AffineModel, obs) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) for a batch: A is (n, 6), B is (n, 6, 4), physical units."""
    x = (_obs_matrix(obs, model.n_features) - model.obs_mean) / model.obs_std
    h = forward(model.backbone, x)
    a = forward(model.a_head, h)
    b = forward(model.b_head, h).reshape(-1, WRENCH_DIM, CONTROL_DIM)
    return a, b


def predict(model: AffineModel, obs) -> tuple[np.ndarray, np.ndarray]:
    """Offset vector A(o) (6,) and effectiveness matrix B(o) (6, 4)."""
    a, b = predict_batch(model, obs)
    if a.shape[0] != 1:
        raise ValueError("predict takes a single observation; use predict_batch")
    return a[0], b[0]


def symmetry_residual_matrix(b: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Per-channel flaperon mirror residual B[:,0] + signs * B[:,1]."""
    return b[..., 0] + signs * b[..., 1]


def symmetry_loss(b: np.ndarray, cfg: SymmetryConfig) -> float:
    """Huber-penalized mirror deviation of one effectiveness matrix."""
    b = np.asarray(b, dtype=float)
    if b.shape != (WRENCH_DIM, CONTROL_DIM):
        raise ValueError(f"expected a {WRENCH_DIM}x{CONTROL_DIM} matrix, got {b.shape}")
    resid = symmetry_residual_matrix(b, cfg.signs_array())
    return float(cfg.lambda_sym * np.sum(huber(resid, cfg.delta_array())))


def symmetry_residual_norm(model: AffineModel, obs, signs=None) -> float:
    """Mean euclidean norm of the flaperon mirror residual over observations."""
    signs = model.sym.signs_array() if signs is None else np.asarray(signs, dtype=float)
    _, b = predict_batch(model, obs)
    resid = symmetry_residual_matrix(b, signs)
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
        resid = symmetry_residual_matrix(b, sym.signs_array())
        loss += float(sym.lambda_sym * np.sum(huber(resid, sym.delta_array())) / err.shape[0])
    return loss


def _batch_tapes(nets, u, err, b, acts, sym: SymmetryConfig):
    """(backbone, A-head, B-head) tapes of `_batch_loss`, reusing the forward pass.

    Upstreams carry the 1/n factors so the tapes hold gradients of the
    mean-form loss.
    """
    backbone, a_head, b_head = nets
    acts_bb, acts_a, acts_b = acts
    n = err.shape[0]
    up_a = (2.0 / err.size) * err
    up_b = up_a[:, :, None] * u[:, None, :]
    if sym.lambda_sym > 0.0:
        resid = symmetry_residual_matrix(b, sym.signs_array())
        g = (sym.lambda_sym / n) * huber_grad(resid, sym.delta_array())
        up_b[:, :, 0] += g
        up_b[:, :, 1] += g * sym.signs_array()
    h = acts_bb[-1]
    tape_a = backward(a_head, h, up_a, acts_a)
    tape_b = backward(b_head, h, up_b.reshape(n, -1), acts_b)
    tape_bb = backward(backbone, acts_bb[0], tape_a.input_grad + tape_b.input_grad, acts_bb,
                       with_input_grad=False)
    return tape_bb, tape_a, tape_b


def _model_batch(model: AffineModel, obs, u, y):
    """Standardized features, control rows and wrench targets of one batch."""
    x = _obs_matrix(obs, model.n_features)
    if x.shape[0] == 0:
        raise ValueError("training loss needs a non-empty batch")
    x = (x - model.obs_mean) / model.obs_std
    u = _control_matrix_rows(u)
    y = np.asarray(y, dtype=float).reshape(x.shape[0], WRENCH_DIM)
    return x, u, y


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
    batch_size: int = 256
    lr: float = 1e-3
    sym: SymmetryConfig = field(default_factory=SymmetryConfig)
    wing_sensors: bool = True
    val_fraction: float = 0.2
    log_every: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


def _dataset_arrays(dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    obs, u, y = dataset
    obs = np.asarray(obs, dtype=float)
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != OBS_DIM:
        raise ValueError(f"observations must be (n, {OBS_DIM})")
    if u.shape != (obs.shape[0], CONTROL_DIM) or y.shape != (obs.shape[0], WRENCH_DIM):
        raise ValueError("observation, control, and wrench row counts must agree")
    for name, mat in (("observations", obs), ("controls", u), ("wrenches", y)):
        _finite_or_raise(mat, name)
    return obs, u, y


def block_split(dataset, holdout_fraction: float):
    """Contiguous leading/trailing split; rows stay in time order so adjacent
    near-duplicate timesteps cannot straddle the boundary."""
    obs, u, y = _dataset_arrays(dataset)
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in (0, 1)")
    n = obs.shape[0]
    n_hold = max(1, int(round(n * holdout_fraction)))
    if n_hold >= n:
        raise ValueError("holdout would consume the whole dataset")
    cut = n - n_hold
    return (obs[:cut], u[:cut], y[:cut]), (obs[cut:], u[cut:], y[cut:])


def _training_rows(obs, u, y, cfg: DynamicsTrainConfig):
    """Training rows and the validation block, None when nothing is held out."""
    if obs.shape[0] < 10:
        raise ValueError(f"dataset too small to fit ({obs.shape[0]} rows)")
    if cfg.val_fraction > 0.0 and obs.shape[0] >= 20:
        return block_split((obs, u, y), cfg.val_fraction)
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
    obs, u, y = _dataset_arrays(dataset)
    (obs_tr, u_tr, y_tr), val = _training_rows(obs, u, y, cfg)
    if obs.shape[0] < 100:
        warnings.warn(
            f"only {obs.shape[0]} samples; expect a poorly constrained fit", stacklevel=2
        )
    if float(np.max(u.std(axis=0))) < 1e-9:
        warnings.warn(
            "control inputs are constant across the dataset; "
            "effectiveness columns are unidentifiable", stacklevel=2,
        )

    n_feat = OBS_DIM if cfg.wing_sensors else PROBE_FEATURES
    feats_tr = obs_tr[:, :n_feat]
    obs_mean, obs_std = nncore.standardize_stats(feats_tr)
    y_mean, y_std = nncore.standardize_stats(y_tr)

    seed_bb, seed_a, seed_b, seed_batch = _child_seeds(cfg.seed, 4)
    width = cfg.hidden[-1]
    backbone = nncore.init_network((n_feat, *cfg.hidden), seed_bb, output_activation="tanh")
    a_head = nncore.init_network((width, WRENCH_DIM), seed_a)
    b_head = nncore.init_network((width, WRENCH_DIM * CONTROL_DIM), seed_b)
    nets = (backbone, a_head, b_head)
    opt = nncore.init_optimizer(nets, lr=cfg.lr)

    # Optimize with deflections rescaled to fractions of full throw, so the
    # effectiveness entries sit at order one where the mirror penalty has
    # leverage against the data term; both scalings fold back out below.
    x_tr = (feats_tr - obs_mean) / obs_std
    us_tr = u_tr / CONTROL_LIMIT_DEG
    yt_tr = (y_tr - y_mean) / y_std

    def minibatch_grads(idx):
        u = us_tr[idx]
        err, b, acts = _forward_heads(*nets, x_tr[idx], u, yt_tr[idx])
        return _batch_tapes(nets, u, err, b, acts, cfg.sym)

    def full_loss():
        err, b, _ = _forward_heads(*nets, x_tr, us_tr, yt_tr)
        return _batch_loss(err, b, cfg.sym)

    nncore.fit(
        opt, x_tr.shape[0], cfg.batch_size, cfg.epochs, np.random.default_rng(seed_batch),
        minibatch_grads, full_loss, history, cfg.log_every,
    )

    nncore.fold_output_scaling(a_head, y_std, y_mean)
    nncore.fold_output_scaling(
        b_head,
        np.repeat(y_std, CONTROL_DIM) / CONTROL_LIMIT_DEG,
        np.zeros(WRENCH_DIM * CONTROL_DIM),
    )
    model = AffineModel(
        backbone, a_head, b_head, obs_mean, obs_std, sym=cfg.sym, wing_sensors=cfg.wing_sensors
    )
    if val is not None and log.isEnabledFor(logging.INFO):
        log.info("validation wrench rmse %.4f", eval_rmse(model, val))
    return model


def predict_wrench_batch(model, obs, u) -> np.ndarray:
    """(n, 6) predicted wrenches; accepts either model family."""
    u = _control_matrix_rows(u)
    if isinstance(model, AffineModel):
        a, b = predict_batch(model, obs)
        return a + np.einsum("nck,nk->nc", b, u)
    if isinstance(model, UnstructuredModel):
        feats = _obs_matrix(obs, model.n_features)
        x = (np.concatenate([feats, u], axis=1) - model.in_mean) / model.in_std
        return forward(model.net, x)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def eval_rmse(model, dataset) -> float:
    """Single RMSE over all samples and all six wrench channels.

    Forces and torques are pooled, so the number is a comparative aggregate
    rather than a physical quantity.
    """
    obs, u, y = _dataset_arrays(dataset)
    if obs.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    pred = predict_wrench_batch(model, obs, u)
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def per_channel_rmse(model, dataset) -> np.ndarray:
    obs, u, y = _dataset_arrays(dataset)
    if obs.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    pred = predict_wrench_batch(model, obs, u)
    return np.sqrt(np.mean((pred - y) ** 2, axis=0))


# ---------------------------------------------------------------------------
# Unstructured baseline
# ---------------------------------------------------------------------------


def build_unstructured(hidden=(64, 64), seed: int = 0, wing_sensors: bool = True) -> UnstructuredModel:
    n_feat = OBS_DIM if wing_sensors else PROBE_FEATURES
    n_in = n_feat + CONTROL_DIM
    net = nncore.init_network((n_in, *hidden, WRENCH_DIM), seed)
    return UnstructuredModel(net, np.zeros(n_in), np.ones(n_in), wing_sensors=wing_sensors)


def train_unstructured(
    dataset, cfg: DynamicsTrainConfig, history: list | None = None
) -> UnstructuredModel:
    """Fit the baseline net on the same arrays train_dynamics takes.

    Shares the config type; the mirror penalty does not apply here and
    cfg.sym is ignored.
    """
    (obs_tr, u_tr, y_tr), val = _training_rows(*_dataset_arrays(dataset), cfg)

    n_feat = OBS_DIM if cfg.wing_sensors else PROBE_FEATURES
    inputs = np.concatenate([obs_tr[:, :n_feat], u_tr], axis=1)
    in_mean, in_std = nncore.standardize_stats(inputs)
    y_mean, y_std = nncore.standardize_stats(y_tr)

    seed_net, seed_batch = _child_seeds(cfg.seed, 2)
    net = nncore.init_network((inputs.shape[1], *cfg.hidden, WRENCH_DIM), seed_net)
    opt = nncore.init_optimizer(net, lr=cfg.lr)

    x_tr = (inputs - in_mean) / in_std
    yt_tr = (y_tr - y_mean) / y_std

    def minibatch_grads(idx):
        x = x_tr[idx]
        acts = forward(net, x, activations=True)
        err = acts[-1] - yt_tr[idx]
        return (backward(net, x, (2.0 / err.size) * err, acts, with_input_grad=False),)

    def full_loss():
        return float(np.mean((forward(net, x_tr) - yt_tr) ** 2))

    nncore.fit(
        opt, x_tr.shape[0], cfg.batch_size, cfg.epochs, np.random.default_rng(seed_batch),
        minibatch_grads, full_loss, history, cfg.log_every,
    )

    nncore.fold_output_scaling(net, y_std, y_mean)
    model = UnstructuredModel(net, in_mean, in_std, wing_sensors=cfg.wing_sensors)
    if val is not None and log.isEnabledFor(logging.INFO):
        log.info("validation wrench rmse %.4f", eval_rmse(model, val))
    return model


def affine_at(model: UnstructuredModel, obs, u_ref) -> tuple[np.ndarray, np.ndarray]:
    """Exact first-order expansion of the baseline around u_ref.

    Returns (A, B) with B the jacobian of the net output with respect to the
    physical control input, so the allocator can treat the baseline like an
    affine model. Exact at u_ref, approximate elsewhere.
    """
    feats = _obs_matrix(obs, model.n_features)
    if feats.shape[0] != 1:
        raise ValueError("affine_at linearizes around a single observation")
    u_vec = np.asarray(u_ref, dtype=float)
    x = (np.concatenate([feats[0], u_vec]) - model.in_mean) / model.in_std
    acts = forward(model.net, np.tile(x, (WRENCH_DIM, 1)), activations=True)
    grad = nncore.input_grad(model.net, _EYE_WRENCH, acts)
    jac = grad[:, -CONTROL_DIM:] / model.in_std[-CONTROL_DIM:]
    # A 1-row pass for y0: reading it off the 6-row pass would move C7, as the two
    # differ in the last bits for 1998 of 2000 random inputs on the C7 baseline net.
    y0 = forward(model.net, x)
    return y0 - jac @ u_vec, jac


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def dynamics_model_to_dict(model) -> dict:
    if isinstance(model, AffineModel):
        return {
            "format": MODEL_FORMAT_VERSION,
            "kind": "affine",
            "wing_sensors": model.wing_sensors,
            "obs_mean": model.obs_mean.tolist(),
            "obs_std": model.obs_std.tolist(),
            "sym": {
                "signs": list(model.sym.signs),
                "lambda": model.sym.lambda_sym,
                "delta": list(model.sym.delta),
            },
            "backbone": nncore.network_to_dict(model.backbone),
            "a_head": nncore.network_to_dict(model.a_head),
            "b_head": nncore.network_to_dict(model.b_head),
        }
    if isinstance(model, UnstructuredModel):
        return {
            "format": MODEL_FORMAT_VERSION,
            "kind": "unstructured",
            "wing_sensors": model.wing_sensors,
            "in_mean": model.in_mean.tolist(),
            "in_std": model.in_std.tolist(),
            "net": nncore.network_to_dict(model.net),
        }
    raise TypeError(f"unsupported model type {type(model).__name__}")


def dynamics_model_from_dict(doc: dict):
    if doc.get("format") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind == "affine":
        sym = SymmetryConfig(
            signs=tuple(doc["sym"]["signs"]),
            lambda_sym=float(doc["sym"]["lambda"]),
            delta=tuple(doc["sym"]["delta"]),
        )
        return AffineModel(
            nncore.network_from_dict(doc["backbone"]),
            nncore.network_from_dict(doc["a_head"]),
            nncore.network_from_dict(doc["b_head"]),
            np.asarray(doc["obs_mean"], dtype=float),
            np.asarray(doc["obs_std"], dtype=float),
            sym=sym,
            wing_sensors=bool(doc["wing_sensors"]),
        )
    if kind == "unstructured":
        return UnstructuredModel(
            nncore.network_from_dict(doc["net"]),
            np.asarray(doc["in_mean"], dtype=float),
            np.asarray(doc["in_std"], dtype=float),
            wing_sensors=bool(doc["wing_sensors"]),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def save_dynamics_model(model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dynamics_model_to_dict(model), sort_keys=True, indent=1))


def load_dynamics_model(path: str | Path):
    return dynamics_model_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------


def save_dynamics_csv(path: str | Path, dataset) -> None:
    rows = (o.tolist() + u.tolist() + y.tolist() for o, u, y in zip(*_dataset_arrays(dataset)))
    write_table(path, DYNAMICS_CSV_HEADER, rows)


def load_dynamics_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mat = read_table(path, DYNAMICS_CSV_HEADER)
    return mat[:, :OBS_DIM], mat[:, OBS_DIM:OBS_DIM + CONTROL_DIM], mat[:, OBS_DIM + CONTROL_DIM:]
