"""Small dense-network engine shared by the probe-calibration and wrench models.

Plain numpy, float64 throughout. A Network is a stack of affine layers with
tanh or identity activations; gradients come from a hand-rolled reverse pass
so every training loss in this package is differentiable end to end without
an autodiff framework. Networks are treated as immutable during forward and
backward passes. `init_optimizer` moves the parameters of the networks it
trains into one shared flat buffer, every layer's weight and bias becoming a
view of it; `step` mutates that buffer in place with one Adam update, and
`fit` is the minibatch loop every trainer in the package runs.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger(__name__)

FORMAT_VERSION = "nncore-v1"
ACTIVATIONS = ("tanh", "identity")


@dataclass
class Layer:
    """One affine layer y = act(W x + b); weight stored (out, in)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "tanh"

    def __post_init__(self) -> None:
        self.weight = np.atleast_2d(np.asarray(self.weight, dtype=np.float64))
        self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match weight rows "
                f"{self.weight.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class Network:
    layers: list[Layer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer widths do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def widths(self) -> list[int]:
        return [self.input_dim] + [layer.out_dim for layer in self.layers]


@dataclass
class GradientTape:
    """Per-parameter gradient buffers aligned with a Network's layout.

    `input_grad` (gradient with respect to the network input) is carried along
    so multi-head models can chain a head's pass into a shared trunk; it is
    None when the pass was asked not to form it.
    """

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_grad: np.ndarray | None


def init_network(
    widths: Sequence[int],
    seed: int,
    hidden_activation: str = "tanh",
    output_activation: str = "identity",
) -> Network:
    """Build a network with seeded uniform init in +-sqrt(6/(fan_in+fan_out))."""
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        act = output_activation if i == len(widths) - 2 else hidden_activation
        layers.append(
            Layer(
                weight=rng.uniform(-limit, limit, size=(fan_out, fan_in)),
                bias=np.zeros(fan_out),
                activation=act,
            )
        )
    return Network(layers)


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{what} has shape {np.shape(x)}, expected (..., {dim})")
    return arr, single


def _activations(net: Network, x_batch: np.ndarray) -> list[np.ndarray]:
    acts = [x_batch]
    for layer in net.layers:
        z = acts[-1] @ layer.weight.T + layer.bias
        acts.append(np.tanh(z) if layer.activation == "tanh" else z)
    return acts


def forward(net: Network, x: np.ndarray, activations: bool = False):
    """Evaluate the network on a vector (d,) or a batch (n, d).

    With `activations=True` the result is instead the batch-shaped list
    [input, first layer output, ..., network output], which `backward` takes
    so that it need not run the pass again.
    """
    batch, single = _as_batch(x, net.input_dim, "input")
    acts = _activations(net, batch)
    if activations:
        return acts
    out = acts[-1]
    return out[0] if single else out


def backward(
    net: Network, x: np.ndarray, upstream: np.ndarray, acts: list | None = None,
    with_input_grad: bool = True,
) -> GradientTape:
    """Gradients of <upstream, forward(net, x)> with respect to all parameters.

    Batched inputs sum the contraction over rows, which is exactly what a
    mean-type loss needs once the upstream carries the 1/n factor. `acts` are
    the activations `forward(net, x, activations=True)` returned for this `x`;
    without them the forward pass is recomputed. With `with_input_grad=False`
    the first layer's input gradient, which a trainer of the input-side net
    never reads, is not formed and the tape's `input_grad` is None; the
    parameter gradients are the same bits either way.
    """
    x_batch, _ = _as_batch(x, net.input_dim, "input")
    up_batch, _ = _as_batch(upstream, net.output_dim, "upstream")
    if up_batch.shape[0] != x_batch.shape[0]:
        raise ValueError(
            f"batch sizes differ: input {x_batch.shape[0]}, upstream {up_batch.shape[0]}"
        )
    if acts is None:
        acts = _activations(net, x_batch)
    n_layers = len(net.layers)
    weight_grads: list[np.ndarray] = [np.empty(0)] * n_layers
    bias_grads: list[np.ndarray] = [np.empty(0)] * n_layers
    g = up_batch
    for i in range(n_layers - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "tanh":
            g = g * (1.0 - acts[i + 1] ** 2)
        weight_grads[i] = g.T @ acts[i]
        bias_grads[i] = g.sum(axis=0)
        if i == 0 and not with_input_grad:
            return GradientTape(weight_grads, bias_grads, None)
        g = g @ layer.weight
    input_grad = g[0] if np.asarray(x).ndim == 1 else g
    return GradientTape(weight_grads, bias_grads, input_grad)


def input_grad(net: Network, upstream: np.ndarray, acts: list) -> np.ndarray:
    """`backward(net, acts[0], upstream, acts).input_grad` of a batch, without
    forming the parameter gradients; the same operations, so the same bits."""
    g = upstream
    for layer, out in zip(reversed(net.layers), reversed(acts[1:])):
        if layer.activation == "tanh":
            g = g * (1.0 - out**2)
        g = g @ layer.weight
    return g


def huber(e, delta):
    """Huber penalty: e^2/2 inside |e| <= delta, linear delta*(|e|-delta/2) outside.

    `delta` may be a positive scalar or an array broadcastable against `e`.
    """
    delta_arr = np.asarray(delta, dtype=np.float64)
    if np.any(delta_arr <= 0.0):
        raise ValueError("huber delta must be positive")
    e_arr = np.asarray(e, dtype=np.float64)
    a = np.abs(e_arr)
    out = np.where(a <= delta_arr, 0.5 * e_arr * e_arr, delta_arr * (a - 0.5 * delta_arr))
    return float(out) if np.isscalar(e) or e_arr.ndim == 0 else out


def huber_grad(e, delta):
    """d huber / d e, the clipped residual; saturates at +-delta."""
    delta_arr = np.asarray(delta, dtype=np.float64)
    if np.any(delta_arr <= 0.0):
        raise ValueError("huber delta must be positive")
    e_arr = np.asarray(e, dtype=np.float64)
    out = np.clip(e_arr, -delta_arr, delta_arr)
    return float(out) if np.isscalar(e) or e_arr.ndim == 0 else out


@dataclass
class OptimizerState:
    """Adam over one flat parameter buffer.

    `params` is the `flat_params` vector of the networks the state was built
    for, and every weight and bias of theirs is a view into it. The moments
    `m`, `v` and the packed gradient `grad` share that layout.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    count: int = 0


def _as_nets(nets: Network | Sequence[Network]) -> tuple[Network, ...]:
    return (nets,) if isinstance(nets, Network) else tuple(nets)


def init_optimizer(
    nets: Network | Sequence[Network], lr: float = 1e-3, beta1: float = 0.9,
    beta2: float = 0.999, eps: float = 1e-8,
) -> OptimizerState:
    """Adam state for one network, or several trained together.

    Moves the networks' parameters into one flat buffer and rebinds every
    layer's weight and bias to a view of it, so that `step` updates all of
    them at once. The layout is fixed here; a layer may appear only once.
    """
    nets = _as_nets(nets)
    layers = [layer for net in nets for layer in net.layers]
    if len({id(layer) for layer in layers}) != len(layers):
        raise ValueError("a layer appears more than once in the optimizer's networks")
    params = flat_params(*nets)
    offset = 0
    for layer in layers:
        for name in ("weight", "bias"):
            arr = getattr(layer, name)
            setattr(layer, name, params[offset : offset + arr.size].reshape(arr.shape))
            offset += arr.size
    zeros = [np.zeros_like(params) for _ in range(3)]
    return OptimizerState(params, *zeros, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def step(opt: OptimizerState, *tapes: GradientTape) -> None:
    """One Adam update of the whole parameter buffer, in place.

    `tapes` hold the gradients of the optimizer's networks in the order it
    was built with; gradients of any other total size raise ValueError.
    """
    grad = flat_grads(*tapes, out=opt.grad)
    opt.count += 1
    c1 = 1.0 - opt.beta1**opt.count
    c2 = 1.0 - opt.beta2**opt.count
    opt.m *= opt.beta1
    opt.m += (1.0 - opt.beta1) * grad
    opt.v *= opt.beta2
    opt.v += (1.0 - opt.beta2) * grad * grad
    opt.params -= opt.lr * (opt.m / c1) / (np.sqrt(opt.v / c2) + opt.eps)


def fit(
    opt: OptimizerState, n_rows: int, batch_size: int, epochs: int, rng: np.random.Generator,
    minibatch_grads: Callable[[np.ndarray], Sequence[GradientTape]],
    full_loss: Callable[[], float] | None = None, history: list | None = None, log_every: int = 0,
) -> None:
    """Minibatch Adam, the training loop every trainer in the package shares.

    Each epoch draws one permutation of range(n_rows) from `rng` and walks
    it in consecutive slices of `batch_size` rows; `minibatch_grads(idx)`
    returns the tapes of the minibatch loss at rows `idx`, in the optimizer's
    network order. After each epoch `full_loss()` is appended to `history`,
    if one is given, and logged every `log_every` epochs.
    """
    for epoch in range(epochs):
        perm = rng.permutation(n_rows)
        for start in range(0, n_rows, batch_size):
            step(opt, *minibatch_grads(perm[start : start + batch_size]))
        logged = log_every and (epoch + 1) % log_every == 0
        if history is not None or logged:
            loss = full_loss()
            if history is not None:
                history.append(loss)
            if logged:
                log.info("epoch %d/%d train loss %.6g", epoch + 1, epochs, loss)


def standardize_stats(mat: np.ndarray, floor: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation, the deviation floored at `floor`."""
    return mat.mean(axis=0), np.maximum(mat.std(axis=0), floor)


def fold_output_scaling(net: Network, scale: np.ndarray, shift: np.ndarray) -> None:
    """Fold y -> scale * y + shift into the network's identity output layer."""
    out = net.layers[-1]
    out.weight[...] = scale[:, None] * out.weight
    out.bias[...] = scale * out.bias + shift


def _param_arrays(nets: Sequence[Network]) -> list[np.ndarray]:
    return [arr for net in nets for layer in net.layers for arr in (layer.weight, layer.bias)]


def flat_params(*nets: Network) -> np.ndarray:
    """All parameters as one vector: net by net, layer by layer, weight rows then bias."""
    return np.concatenate([arr.ravel() for arr in _param_arrays(nets)])


def set_flat_params(nets: Network | Sequence[Network], vec: np.ndarray) -> None:
    """Copy a vector laid out as `flat_params` into the networks' parameters."""
    arrays = _param_arrays(_as_nets(nets))
    vec = np.asarray(vec, dtype=np.float64)
    expected = sum(arr.size for arr in arrays)
    if vec.size != expected:
        raise ValueError(f"parameter vector length {vec.size}, expected {expected}")
    offset = 0
    for arr in arrays:
        arr[...] = vec[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size


def flat_grads(*tapes: GradientTape, out: np.ndarray | None = None) -> np.ndarray:
    """The gradients of one or more tapes as one vector, in flat_params order."""
    grads = [g for t in tapes for pair in zip(t.weight_grads, t.bias_grads) for g in pair]
    return np.concatenate([g.ravel() for g in grads], out=out)


def network_to_dict(net: Network) -> dict:
    return {
        "version": FORMAT_VERSION,
        "widths": net.widths,
        "activations": [layer.activation for layer in net.layers],
        "weights": [layer.weight.ravel(order="C").tolist() for layer in net.layers],
        "biases": [layer.bias.tolist() for layer in net.layers],
    }


def network_from_dict(doc: dict) -> Network:
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported network format {doc.get('version')!r}")
    widths = doc["widths"]
    layers = []
    for i, act in enumerate(doc["activations"]):
        fan_in, fan_out = widths[i], widths[i + 1]
        weight = np.asarray(doc["weights"][i], dtype=np.float64).reshape(fan_out, fan_in)
        bias = np.asarray(doc["biases"][i], dtype=np.float64)
        layers.append(Layer(weight=weight, bias=bias, activation=act))
    return Network(layers)


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), sort_keys=True))


def load_network(path: str | Path) -> Network:
    return network_from_dict(json.loads(Path(path).read_text()))
