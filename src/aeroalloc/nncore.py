"""Small dense-network engine shared by the probe-calibration and wrench models.

Plain numpy, float64 throughout. A Network is a stack of affine layers with
tanh or identity activations; gradients come from a hand-rolled reverse pass
so every training loss in this package is differentiable end to end without
an autodiff framework. Networks are treated as immutable during forward and
backward passes. `init_optimizer` moves the parameters of the networks it
trains into one shared flat buffer, every layer's weight and bias becoming a
view of it, and lays out their gradients the same way in a second buffer;
`backward(..., out=opt.tapes[i])` writes into that one, `step(opt)` applies
it to the parameters in place with one Adam update, and `fit` is the
minibatch loop every trainer in the package runs; it logs nothing, and
records each epoch's training loss only in a `history` list its caller
passes. Within this module a training step allocates only the activations
and the gradients it carries between layers. There is one kernel per
direction: `_activations` is the forward pass and `_backprop` the reverse
pass over the activations it recorded. `forward` and `backward` check their
arguments and call them, and the wrench models in `dynamics` also run them
directly, past those checks. `by_row_blocks` walks a pass over many rows in
near-equal blocks, for the wrench models' scoring and the probe's estimator.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

FORMAT_VERSION = "nncore-v1"
ACTIVATIONS = ("tanh", "identity")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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


def init_network(widths: Sequence[int], seed: int, output_activation: str = "identity") -> Network:
    """Tanh hidden layers, seeded uniform init in +-sqrt(6/(fan_in+fan_out))."""
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        act = output_activation if i == len(widths) - 2 else "tanh"
        layers.append(
            Layer(
                weight=rng.uniform(-limit, limit, size=(fan_out, fan_in)),
                bias=np.zeros(fan_out),
                activation=act,
            )
        )
    return Network(layers)


def _as_batch(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{what} has shape {np.shape(x)}, expected (n, {dim})")
    return arr


def _product_for(x: np.ndarray):
    """The layer product for a batch like `x`. On a vector or a 2-D batch of up to
    32 rows ndarray.dot gives `@`'s bits at about half its call cost; on more rows
    `@` is faster, and a stack needs its broadcasting."""
    return np.ndarray.dot if x.ndim == 1 or x.ndim == 2 and x.shape[0] <= 32 else np.matmul


def _activations(net: Network, x_batch: np.ndarray) -> list[np.ndarray]:
    # one row passed as a vector gives the (1, d) row's bits, without broadcasting
    product = _product_for(x_batch)
    acts = [x_batch]
    z = x_batch
    for layer in net.layers:
        z = product(z, layer.weight.T)
        z += layer.bias
        if layer.activation == "tanh":
            np.tanh(z, z)
        acts.append(z)
    return acts


def forward(net: Network, x: np.ndarray, activations: bool = False):
    """Evaluate the network on a batch (n, d), or a stack (n, 1, d) of one-row
    batches.

    A stack's products are n one-row products, so row k of its (n, 1, out)
    result equals the call on x[k:k + 1] bit for bit. A batch of more rows
    runs one matrix product per layer, which is faster but may differ from
    the one-row results in the last bits. With `activations=True` the result
    is instead the list [input, first layer output, ..., network output] in
    the input's batch or stack shape, which `backward` takes so that it need
    not run the pass again.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1:] != (1, net.input_dim):
        arr = _as_batch(arr, net.input_dim, "input")
    acts = _activations(net, arr)
    return acts if activations else acts[-1]


def by_row_blocks(pass_fn: Callable[..., tuple], most: int, *rows: np.ndarray) -> tuple:
    """The arrays `pass_fn(*rows)` returns, from one pass per block of
    ⌈n / most⌉ near-equal row blocks, each output concatenated in row order,
    so that a pass over many rows holds the activations of at most `most`.
    A pass of stacked one-row products gives the same bits for any split. A
    2-D pass keeps the whole-batch bits when each block has over 1024 rows,
    as near-equal blocks of at most 2048 do, where a fixed block size leaves
    a short last block that OpenBLAS runs on another GEMM path."""
    n_blocks = -(-rows[0].shape[0] // most)
    if n_blocks <= 1:
        return pass_fn(*rows)
    outs = [pass_fn(*block) for block in zip(*(np.array_split(r, n_blocks) for r in rows))]
    return tuple(np.concatenate(parts) for parts in zip(*outs))


def _through_tanh(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g * (1 - out**2): an upstream carried back through a tanh layer whose
    output is `out`, formed in one new array."""
    d = np.square(out)
    np.subtract(1.0, d, d)  # out= by position: numpy parses no keyword
    return np.multiply(g, d, d)


def _backprop(net: Network, g: np.ndarray, acts: list, tape: GradientTape | None = None,
              with_input_grad: bool = True) -> np.ndarray | None:
    """The reverse kernel: carries the upstream `g` of the pass that recorded
    `acts` back through the layers, last first. With a `tape` it writes each
    layer's parameter gradients into it on the way; it returns the input
    gradient, or None when `with_input_grad` is False."""
    product = _product_for(g)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "tanh":
            g = _through_tanh(g, acts[i + 1])
        if tape is not None:
            np.matmul(g.T, acts[i], out=tape.weight_grads[i])
            np.add.reduce(g, axis=0, out=tape.bias_grads[i])
        if i == 0 and not with_input_grad:
            return None
        g = product(g, layer.weight)
    return g


def backward(
    net: Network, upstream: np.ndarray, acts: list, with_input_grad: bool = True,
    out: GradientTape | None = None,
) -> GradientTape:
    """Gradients of <upstream, forward(net, x)> with respect to all parameters,
    for a batch x (n, d) and its upstream (n, out).

    `acts` are the activations `forward(net, x, activations=True)` returned,
    so `acts[0]` is x; no forward pass is run here. It sums the contraction
    over rows, which is exactly what a mean-type loss needs once the upstream
    carries the 1/n factor. With `with_input_grad=False` the first layer's
    input gradient, which a trainer of the input-side net never reads, is not
    formed and the tape's `input_grad` is None; the parameter gradients are
    the same bits either way. The parameter gradients are written into the
    arrays of `out` (a trainer passes its optimizer's `tapes` entry for
    `net`), or into new arrays without it.
    """
    up_batch = _as_batch(upstream, net.output_dim, "upstream")
    if len(acts) != len(net.layers) + 1:
        raise ValueError(f"{len(acts)} activations for a network of {len(net.layers)} "
                         f"layers, which needs {len(net.layers) + 1}")
    if up_batch.shape[0] != acts[0].shape[0]:
        raise ValueError(f"batch sizes differ: input {acts[0].shape[0]}, "
                         f"upstream {up_batch.shape[0]}")
    if out is None:
        out = GradientTape([np.empty_like(layer.weight) for layer in net.layers],
                           [np.empty_like(layer.bias) for layer in net.layers], None)
    grad_in = _backprop(net, up_batch, acts, out, with_input_grad)
    return GradientTape(out.weight_grads, out.bias_grads, grad_in)


@dataclass
class OptimizerState:
    """Adam over one flat parameter buffer.

    `params` is the `flat_params` vector of the networks the state was built
    for, and every weight and bias of theirs is a view into it. The moments
    `m`, `v` and the packed gradient `grad` share that layout; `tapes` holds,
    per network, its weight and bias gradients as views into `grad`, and
    `scratch` two more vectors of that length for the update's temporaries.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    tapes: tuple[GradientTape, ...]
    scratch: np.ndarray
    lr: float = 1e-3
    count: int = 0


def _as_nets(nets: Network | Sequence[Network]) -> tuple[Network, ...]:
    return (nets,) if isinstance(nets, Network) else tuple(nets)


def init_optimizer(nets: Network | Sequence[Network], lr: float = 1e-3) -> OptimizerState:
    """Adam state for one network, or several trained together.

    Moves the networks' parameters into one flat buffer and rebinds every
    layer's weight and bias to a view of it, so that `step` updates all of
    them at once, and builds the matching gradient views (`tapes`) once. The
    layout is fixed here; a layer may appear only once.
    """
    nets = _as_nets(nets)
    layers = [layer for net in nets for layer in net.layers]
    if len({id(layer) for layer in layers}) != len(layers):
        raise ValueError("a layer appears more than once in the optimizer's networks")
    params = flat_params(*nets)
    grad = np.zeros_like(params)
    tapes = []
    offset = 0
    for net in nets:
        grads: dict[str, list[np.ndarray]] = {"weight": [], "bias": []}
        for layer in net.layers:
            for name, views in grads.items():
                arr = getattr(layer, name)
                setattr(layer, name, params[offset : offset + arr.size].reshape(arr.shape))
                views.append(grad[offset : offset + arr.size].reshape(arr.shape))
                offset += arr.size
        tapes.append(GradientTape(grads["weight"], grads["bias"], None))
    return OptimizerState(params, np.zeros_like(params), np.zeros_like(params), grad,
                          tuple(tapes), np.empty((2, params.size)), lr=lr)


def step(opt: OptimizerState) -> None:
    """One Adam update of the whole parameter buffer, in place, from the
    gradients `backward` wrote into `opt.tapes` (packed in `opt.grad`)."""
    grad, (s1, s2) = opt.grad, opt.scratch
    opt.count += 1
    c1 = 1.0 - ADAM_BETA1**opt.count
    c2 = 1.0 - ADAM_BETA2**opt.count
    # m += (1-b1) g;  v += ((1-b2) g) g;  params -= (lr (m/c1)) / (sqrt(v/c2) + eps),
    # each product and quotient in that order
    opt.m *= ADAM_BETA1
    opt.m += np.multiply(1.0 - ADAM_BETA1, grad, out=s1)
    opt.v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=s1)
    s1 *= grad
    opt.v += s1
    np.divide(opt.m, c1, out=s1)
    s1 *= opt.lr
    np.divide(opt.v, c2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 /= s2
    opt.params -= s1


def _check_network(net: Network, n_in: int, n_out: int, what: str) -> None:
    """A network's widths: `n_in` inputs and `n_out` outputs."""
    if net.input_dim != n_in or net.output_dim != n_out:
        raise ValueError(f"{what} must map {n_in} -> {n_out}, "
                         f"got {net.input_dim} -> {net.output_dim}")


def _check_budget(epochs, hidden) -> None:
    """A trainer's budget: `epochs`, and each of the one or more `hidden` layer
    widths, a positive int (a bool is not one)."""
    if not (type(epochs) is int and epochs > 0):
        raise ValueError(f"epochs must be positive and whole, got {epochs!r}")
    if not (isinstance(hidden, (list, tuple)) and hidden
            and all(type(width) is int and width > 0 for width in hidden)):
        raise ValueError(f"hidden must list one or more positive whole widths, got {hidden!r}")


def fit(
    opt: OptimizerState, arrays: Sequence[np.ndarray], batch_size: int, epochs: int,
    rng: np.random.Generator, minibatch_grads: Callable[..., None],
    full_loss: Callable[[], float] | None = None, history: list | None = None,
) -> None:
    """Minibatch Adam, the training loop every trainer in the package shares.

    `arrays` are the training arrays, one row per sample. Each epoch draws one
    permutation of the rows from `rng`, gathers every array's rows in that
    order once, and walks them in consecutive slices of `batch_size` rows:
    `minibatch_grads(*slices)` writes the gradients of the minibatch loss on
    those rows into `opt.tapes`, and `step` applies them. If `history` is given,
    `full_loss()` is appended to it after each epoch; without it the loss is
    never evaluated.
    """
    n_rows = arrays[0].shape[0]
    if any(arr.shape[0] != n_rows for arr in arrays):
        raise ValueError(f"training arrays differ in rows: {[arr.shape[0] for arr in arrays]}")
    shuffled = [np.empty_like(arr, order="C") for arr in arrays]
    for _ in range(epochs):
        perm = rng.permutation(n_rows)
        for arr, rows in zip(arrays, shuffled):
            np.take(arr, perm, axis=0, out=rows, mode="clip")  # "clip": no buffered copy
        for start in range(0, n_rows, batch_size):
            minibatch_grads(*(rows[start : start + batch_size] for rows in shuffled))
            step(opt)
        if history is not None:
            history.append(full_loss())


def standardize_stats(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation, the deviation floored at 1e-8."""
    return mat.mean(axis=0), np.maximum(mat.std(axis=0), 1e-8)


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


def flat_grads(*tapes: GradientTape) -> np.ndarray:
    """The gradients of one or more tapes as one vector, in flat_params order."""
    grads = [g for t in tapes for pair in zip(t.weight_grads, t.bias_grads) for g in pair]
    return np.concatenate([g.ravel() for g in grads])


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
    if not all(type(w) is int and w > 0 for w in widths):
        raise ValueError(f"network widths must be positive whole numbers, got {widths}")
    for key in ("activations", "weights", "biases"):
        if len(doc[key]) != len(widths) - 1:
            raise ValueError(f"the network lists {len(doc[key])} {key} for widths {widths}, "
                             f"which need {len(widths) - 1}")
    layers = []
    for i, act in enumerate(doc["activations"]):
        fan_in, fan_out = widths[i], widths[i + 1]
        weight = np.asarray(doc["weights"][i], dtype=np.float64).reshape(fan_out, fan_in)
        bias = np.asarray(doc["biases"][i], dtype=np.float64)
        layers.append(Layer(weight=weight, bias=bias, activation=act))
    return Network(layers)


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), sort_keys=True))


def load_json(path: str | Path, from_dict: Callable, what: str):
    """`from_dict` of the JSON object in `path`; a file that does not parse, or
    is not an object with the keys and types it needs, raises ValueError naming it."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"a {what} must be a JSON object, got {type(doc).__name__}")
        return from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: the {what} has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_network(path: str | Path) -> Network:
    return load_json(path, network_from_dict, "network")
