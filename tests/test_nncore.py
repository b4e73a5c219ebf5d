"""Network engine: forward/backward correctness, optimizer, serialization."""
import re

import numpy as np
import pytest

from aeroalloc import nncore
from conftest import finite_difference_grads, relative_error


def test_forward_identity_layer():
    net = nncore.Network([nncore.Layer(np.eye(2), np.zeros(2), activation="identity")])
    out = nncore.forward(net, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 2.0]])


def test_forward_zero_weight_tanh_gives_zero():
    net = nncore.Network([nncore.Layer(np.zeros((3, 4)), np.zeros(3), activation="tanh")])
    out = nncore.forward(net, np.ones((1, 4)) * 7.3)
    assert np.array_equal(out, np.zeros((1, 3)))


def test_forward_matches_manual_composition(rng):
    net = nncore.init_network([3, 5, 2], seed=11)
    x = rng.normal(size=3)
    h = np.tanh(net.layers[0].weight @ x + net.layers[0].bias)
    expected = net.layers[1].weight @ h + net.layers[1].bias
    assert np.allclose(nncore.forward(net, x[None])[0], expected, rtol=0, atol=0)


def test_forward_batch_matches_rows(rng):
    # batched BLAS may differ from row-at-a-time in the last ulp; a stack of
    # one-row batches may not
    net = nncore.init_network([4, 6, 3], seed=2)
    xs = rng.normal(size=(5, 4))
    batch = nncore.forward(net, xs)
    rows = np.concatenate([nncore.forward(net, x[None]) for x in xs])
    assert np.allclose(batch, rows, rtol=0, atol=1e-14)
    wide = nncore.init_network([5, 32, 32, 3], seed=2)
    xs = rng.uniform(size=(600, 5))
    stack = nncore.forward(wide, xs[:, None, :])
    assert stack.shape == (600, 1, 3)
    assert np.array_equal(stack, np.stack([nncore.forward(wide, x[None]) for x in xs]))


def test_kernel_products_give_the_matmul_bits(rng):
    # both kernels multiply 2-D batches of up to 32 rows with ndarray.dot; a
    # reference written with `@` must agree to the bit, on the activations,
    # the parameter gradients and the input gradient
    for widths in ([13, 64, 64], [64, 24], [17, 64, 64, 6], [5, 32, 32, 3]):
        net = nncore.init_network(widths, seed=3)
        for n in (1, 2, 6, 32, 33, 256, 6000):
            x = rng.normal(size=(n, widths[0]))
            ref = [x]
            for layer in net.layers:
                z = ref[-1] @ layer.weight.T + layer.bias
                ref.append(np.tanh(z) if layer.activation == "tanh" else z)
            acts = nncore.forward(net, x, activations=True)
            assert [a.tobytes() for a in acts] == [a.tobytes() for a in ref]
            up = rng.normal(size=(n, widths[-1]))
            ref_params, ref_input = _matmul_backprop(net, up, ref)
            assert nncore._backprop(net, up, acts).tobytes() == ref_input
            for with_input_grad in (True, False):
                tape = nncore.backward(net, up, acts, with_input_grad=with_input_grad)
                assert nncore.flat_grads(tape).tobytes() == ref_params
                got = tape.input_grad.tobytes() if with_input_grad else tape.input_grad
                assert got == (ref_input if with_input_grad else None)


def _matmul_backprop(net, upstream, acts) -> tuple[bytes, bytes]:
    """Parameter gradients, in flat_params order, and input gradient of a
    reverse pass written with `@`."""
    g, grads = upstream, []
    for layer, inp, out in zip(reversed(net.layers), reversed(acts[:-1]), reversed(acts[1:])):
        g = g * (1.0 - out**2) if layer.activation == "tanh" else g
        grads[:0] = [g.T @ inp, g.sum(axis=0)]
        g = g @ layer.weight
    return np.concatenate([a.ravel() for a in grads]).tobytes(), g.tobytes()


def _backward(net, x, upstream, **kwargs):
    """`backward` on the activations of a fresh forward pass of `x`."""
    return nncore.backward(net, upstream, nncore.forward(net, x, activations=True), **kwargs)


def test_forward_pure():
    net = nncore.init_network([4, 6, 3], seed=2)
    x = np.linspace(-1.0, 1.0, 4)[None]
    assert np.array_equal(nncore.forward(net, x), nncore.forward(net, x))


def test_forward_rejects_bad_width():
    net = nncore.init_network([3, 2], seed=0)
    for bad in (np.zeros((1, 4)), np.zeros((2, 1, 4)), np.zeros(3), np.zeros((1, 1, 1, 3))):
        with pytest.raises(ValueError, match="expected"):
            nncore.forward(net, bad)


def test_backward_linear_scalar_case():
    # y = w*x + b with w free: d<1,y>/dw = x, d/db = 1
    net = nncore.Network([nncore.Layer(np.array([[2.0]]), np.array([0.5]), "identity")])
    tape = _backward(net, np.array([[3.0]]), np.array([[1.0]]))
    assert tape.weight_grads[0][0, 0] == 3.0
    assert tape.bias_grads[0][0] == 1.0
    assert tape.input_grad[0, 0] == 2.0


def test_backward_zero_upstream_zero_tape():
    net = nncore.init_network([3, 4, 2], seed=5)
    tape = _backward(net, np.ones((1, 3)), np.zeros((1, 2)))
    for gw, gb in zip(tape.weight_grads, tape.bias_grads):
        assert not gw.any()
        assert not gb.any()


def test_backward_matches_finite_differences(rng):
    for trial in range(5):
        widths = [int(w) for w in rng.integers(1, 8, size=rng.integers(2, 4))]
        net = nncore.init_network(widths, seed=trial)
        x = rng.normal(size=(1, widths[0]))
        upstream = rng.normal(size=(1, widths[-1]))

        def loss(vec):
            nncore.set_flat_params(net, vec)
            return float(np.sum(upstream * nncore.forward(net, x)))

        p0 = nncore.flat_params(net)
        fd = finite_difference_grads(loss, p0)
        nncore.set_flat_params(net, p0)
        tape = _backward(net, x, upstream)
        assert relative_error(nncore.flat_grads(tape), fd) < 1e-6


def test_backward_batch_sums_rows(rng):
    net = nncore.init_network([3, 4, 2], seed=9)
    xs = rng.normal(size=(6, 3))
    ups = rng.normal(size=(6, 2))
    batched = _backward(net, xs, ups)
    summed = [_backward(net, x[None], u[None]) for x, u in zip(xs, ups)]
    total_w = sum(t.weight_grads[0] for t in summed)
    assert np.allclose(batched.weight_grads[0], total_w, atol=1e-12)
    assert batched.input_grad.shape == (6, 3)
    assert np.allclose(batched.input_grad[2], summed[2].input_grad[0], atol=1e-12)


@pytest.mark.parametrize("widths", [[5, 3], [5, 7, 6, 3]])
def test_backward_without_input_grad_keeps_parameter_grads(rng, widths):
    net = nncore.init_network(widths, seed=8)
    xs = rng.normal(size=(9, 5))
    ups = rng.normal(size=(9, 3))
    acts = nncore.forward(net, xs, activations=True)
    full = nncore.backward(net, ups, acts)
    lean = nncore.backward(net, ups, acts, with_input_grad=False)
    assert lean.input_grad is None
    assert np.array_equal(nncore.flat_grads(lean), nncore.flat_grads(full))


def test_backward_input_grad_finite_difference(rng):
    net = nncore.init_network([4, 5, 3], seed=3)
    x = rng.normal(size=(1, 4))
    upstream = rng.normal(size=(1, 3))
    tape = _backward(net, x, upstream)
    fd = finite_difference_grads(lambda v: float(np.sum(upstream * nncore.forward(net, v[None]))),
                                 x[0].copy())
    assert relative_error(tape.input_grad[0], fd) < 1e-6


def test_step_zero_gradient_keeps_params():
    net = nncore.init_network([2, 2], seed=0)
    before = nncore.flat_params(net).copy()
    opt = nncore.init_optimizer(net)
    _backward(net, np.zeros((1, 2)), np.zeros((1, 2)), out=opt.tapes[0])
    nncore.step(opt)
    assert opt.count == 1
    assert np.array_equal(nncore.flat_params(net), before)


def test_step_first_update_magnitude():
    # bias-corrected Adam moves ~lr on the first step regardless of grad scale
    net = nncore.Network([nncore.Layer(np.array([[1.0]]), np.array([0.0]), "identity")])
    opt = nncore.init_optimizer(net, lr=0.1)
    _backward(net, np.array([[1.0]]), np.array([[1.0]]), out=opt.tapes[0])
    nncore.step(opt)
    assert net.layers[0].weight[0, 0] == pytest.approx(0.9, abs=1e-6)


def test_step_descends_quadratic():
    net = nncore.Network([nncore.Layer(np.array([[1.0]]), np.array([0.0]), "identity")])
    opt = nncore.init_optimizer(net, lr=0.05)
    traj = []
    for _ in range(200):
        w = net.layers[0].weight[0, 0]
        traj.append(abs(w))
        # d(w^2)/dw = 2w corresponds to upstream 2w on input x=1
        _backward(net, np.array([[1.0]]), np.array([[2.0 * w]]), out=opt.tapes[0])
        nncore.step(opt)
    assert traj[-1] < 1e-3
    assert max(traj[50:]) <= max(traj[:50])


def test_step_rejects_mismatched_tape():
    # the optimizer's tapes take only the gradients of its own networks
    net = nncore.init_network([2, 2], seed=0)
    other = nncore.init_network([3, 3], seed=0)
    opt = nncore.init_optimizer(net)
    with pytest.raises(ValueError):
        _backward(other, np.zeros((1, 3)), np.zeros((1, 3)), out=opt.tapes[0])
    assert opt.count == 0
    with pytest.raises(ValueError):
        nncore.init_optimizer([net, net])


def test_backward_reuses_forward_activations(rng, monkeypatch):
    # the reverse pass reads the activations it is given and runs no forward pass
    net = nncore.init_network([4, 7, 5, 3], seed=21)
    xs = rng.normal(size=(9, 4))
    ups = rng.normal(size=(9, 3))
    acts = nncore.forward(net, xs, activations=True)
    expected = _matmul_backprop(net, ups, acts)

    def no_forward(*args):
        raise AssertionError("backward ran a forward pass")

    monkeypatch.setattr(nncore, "_activations", no_forward)
    tape = nncore.backward(net, ups, acts)
    assert (nncore.flat_grads(tape).tobytes(), tape.input_grad.tobytes()) == expected


def test_backward_rejects_mismatched_arguments(rng):
    net = nncore.init_network([4, 7, 3], seed=2)
    acts = nncore.forward(net, rng.normal(size=(5, 4)), activations=True)
    with pytest.raises(ValueError, match=r"upstream has shape \(5, 2\), expected \(n, 3\)"):
        nncore.backward(net, np.zeros((5, 2)), acts)
    with pytest.raises(ValueError, match="batch sizes differ: input 5, upstream 4"):
        nncore.backward(net, np.zeros((4, 3)), acts)
    for bad in (acts[:-1], acts + [acts[-1]]):
        with pytest.raises(ValueError, match=f"{len(bad)} activations for a network of 2 layers"):
            nncore.backward(net, np.zeros((5, 3)), bad)


def _reference_adam(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam applied array by array, as separate per-parameter states would."""
    state["count"] = count = state.get("count", 0) + 1
    c1, c2 = 1.0 - beta1**count, 1.0 - beta2**count
    for i, (param, grad) in enumerate(zip(params, grads)):
        m = state.setdefault(("m", i), np.zeros_like(param))
        v = state.setdefault(("v", i), np.zeros_like(param))
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        param -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _param_arrays(nets):
    return [a for net in nets for layer in net.layers for a in (layer.weight, layer.bias)]


def test_flat_adam_matches_per_array_adam(rng):
    widths = ([3, 6, 4], [4, 2], [4, 5, 8])
    nets = [nncore.init_network(w, seed=30 + i) for i, w in enumerate(widths)]
    ref_nets = [nncore.init_network(w, seed=30 + i) for i, w in enumerate(widths)]
    opt = nncore.init_optimizer(nets, lr=0.01)
    assert np.shares_memory(nets[2].layers[1].weight, opt.params)
    ref_state = {}
    for _ in range(5):
        xs = [rng.normal(size=(6, w[0])) for w in widths]
        ups = [rng.normal(size=(6, w[-1])) for w in widths]
        for net, x, up, own in zip(nets, xs, ups, opt.tapes):
            _backward(net, x, up, out=own)
        ref_tapes = [_backward(net, x, up) for net, x, up in zip(ref_nets, xs, ups)]
        nncore.step(opt)
        ref_grads = [g for t in ref_tapes for pair in zip(t.weight_grads, t.bias_grads)
                     for g in pair]
        _reference_adam(_param_arrays(ref_nets), ref_grads, ref_state, lr=0.01)
        for got, want in zip(_param_arrays(nets), _param_arrays(ref_nets)):
            assert np.array_equal(got, want)


def test_step_on_gradients_written_in_place_matches_per_array_adam(rng):
    widths = ([3, 6, 4], [4, 2])
    nets = [nncore.init_network(w, seed=40 + i) for i, w in enumerate(widths)]
    ref_nets = [nncore.init_network(w, seed=40 + i) for i, w in enumerate(widths)]
    opt = nncore.init_optimizer(nets, lr=0.01)
    ref_state = {}
    for _ in range(6):
        xs = [rng.normal(size=(5, w[0])) for w in widths]
        ups = [rng.normal(size=(5, w[-1])) for w in widths]
        tapes = [_backward(net, x, up, out=own)
                 for net, x, up, own in zip(nets, xs, ups, opt.tapes)]
        assert all(np.shares_memory(t.weight_grads[0], opt.grad) for t in tapes)
        assert np.array_equal(opt.grad, nncore.flat_grads(*tapes))
        ref_tapes = [_backward(net, x, up) for net, x, up in zip(ref_nets, xs, ups)]
        nncore.step(opt)
        ref_grads = [g for t in ref_tapes for pair in zip(t.weight_grads, t.bias_grads)
                     for g in pair]
        _reference_adam(_param_arrays(ref_nets), ref_grads, ref_state, lr=0.01)
        for got, want in zip(_param_arrays(nets), _param_arrays(ref_nets)):
            assert np.array_equal(got, want)


def test_fit_reproduces_reference_minibatch_loop(rng):
    x = rng.normal(size=(37, 3))
    y = rng.normal(size=(37, 2))
    net = nncore.init_network([3, 8, 2], seed=4)
    ref = nncore.init_network([3, 8, 2], seed=4)
    opt = nncore.init_optimizer(net, lr=0.01)

    def minibatch_grads(xb, yb):
        acts = nncore.forward(net, xb, activations=True)
        err = acts[-1] - yb
        nncore.backward(net, (2.0 / err.size) * err, acts, out=opt.tapes[0])

    history = []
    nncore.fit(
        opt, (x, y), 10, 4, np.random.default_rng(5),
        minibatch_grads, lambda: float(np.mean((nncore.forward(net, x) - y) ** 2)), history,
    )
    with pytest.raises(ValueError, match="differ in rows"):
        nncore.fit(opt, (x, y[:-1]), 10, 1, np.random.default_rng(5), minibatch_grads)

    ref_rng, ref_state, ref_history = np.random.default_rng(5), {}, []
    for _ in range(4):
        perm = ref_rng.permutation(37)
        for start in range(0, 37, 10):
            idx = perm[start:start + 10]
            pred = nncore.forward(ref, x[idx])
            err = pred - y[idx]
            tape = _backward(ref, x[idx], (2.0 / err.size) * err)
            grads = [g for pair in zip(tape.weight_grads, tape.bias_grads) for g in pair]
            _reference_adam(_param_arrays([ref]), grads, ref_state, lr=0.01)
        ref_history.append(float(np.mean((nncore.forward(ref, x) - y) ** 2)))
    assert np.array_equal(nncore.flat_params(net), nncore.flat_params(ref))
    assert history == ref_history


def test_init_network_deterministic_and_bounded():
    a = nncore.init_network([4, 8, 2], seed=42)
    b = nncore.init_network([4, 8, 2], seed=42)
    assert np.array_equal(nncore.flat_params(a), nncore.flat_params(b))
    limit0 = np.sqrt(6.0 / (4 + 8))
    assert np.abs(a.layers[0].weight).max() <= limit0
    assert a.layers[0].activation == "tanh"
    assert a.layers[-1].activation == "identity"


def test_flat_params_roundtrip(rng):
    net = nncore.init_network([3, 5, 2], seed=7)
    vec = rng.normal(size=nncore.flat_params(net).size)
    nncore.set_flat_params(net, vec)
    assert np.array_equal(nncore.flat_params(net), vec)
    with pytest.raises(ValueError):
        nncore.set_flat_params(net, vec[:-1])


def test_network_validation_errors():
    with pytest.raises(ValueError):
        nncore.Layer(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        nncore.Layer(np.ones((2, 2)), np.ones(2), activation="relu")
    with pytest.raises(ValueError):
        nncore.Layer(np.array([[np.inf, 0.0]]), np.zeros(1))
    with pytest.raises(ValueError):
        nncore.Network([
            nncore.Layer(np.ones((3, 2)), np.zeros(3)),
            nncore.Layer(np.ones((2, 4)), np.zeros(2)),
        ])


def test_save_load_roundtrip(tmp_path, rng):
    net = nncore.init_network([5, 6, 3], seed=13)
    path = tmp_path / "net.json"
    nncore.save_network(net, path)
    loaded = nncore.load_network(path)
    assert loaded.widths == net.widths
    assert np.array_equal(nncore.flat_params(loaded), nncore.flat_params(net))
    x = rng.normal(size=(2, 5))
    assert np.array_equal(nncore.forward(loaded, x), nncore.forward(net, x))


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    doc = nncore.network_to_dict(nncore.init_network([2, 2], seed=0))
    doc["version"] = "nncore-v999"
    path.write_text(__import__("json").dumps(doc))
    with pytest.raises(ValueError):
        nncore.load_network(path)


@pytest.mark.parametrize("widths, n_weights", [
    ([2, -1], 6),    # reshape reads -1 as "infer": this loaded as a 2 -> 3 network
    ([2, 0], 0),     # a layer of no units
    ([2, True], 2),  # a bool is not a width, though reshape reads it as 1
])
def test_load_rejects_a_width_that_is_not_a_positive_int(tmp_path, widths, n_weights):
    path = tmp_path / "bad.json"
    doc = {"version": nncore.FORMAT_VERSION, "widths": widths, "activations": ["identity"],
           "weights": [[0.5] * n_weights], "biases": [[0.0] * (n_weights // 2)]}
    path.write_text(__import__("json").dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: network widths must be positive")):
        nncore.load_network(path)


@pytest.mark.parametrize("stacked, most", [(False, 2048), (True, 256)])
@pytest.mark.parametrize("times, plus", [(0, 0), (0, 1), (1, 0), (1, 1), (3, 5)])
def test_row_block_walker_keeps_the_bits_of_one_pass(rng, stacked, most, times, plus):
    # n in {0, 1, most, most + 1, 3 most + 5}: near-equal blocks of at most `most`
    # rows, whose outputs equal one pass over every row; a stack's also equal
    # one-row calls, as any split of one-row products does
    n = times * most + plus
    net = nncore.init_network([5, 32, 32, 3] if stacked else [5, 64, 64, 6], seed=3)
    x, w = rng.normal(size=(n, 5)), rng.normal(size=(n, 2))
    blocks = []

    def one_pass(xb, wb):  # two row arrays in, two outputs out
        blocks.append(xb.shape[0])
        y = nncore.forward(net, xb[:, None, :] if stacked else xb)
        return y.reshape(xb.shape[0], net.output_dim), wb * 2.0

    y, w2 = nncore.by_row_blocks(one_pass, most, x, w)
    assert len(blocks) == max(1, -(-n // most)) and max(blocks) <= most
    assert max(blocks) - min(blocks) <= 1 and sum(blocks) == n
    whole = nncore.forward(net, x[:, None, :] if stacked else x).reshape(n, net.output_dim)
    assert y.shape == (n, net.output_dim) and y.tobytes() == whole.tobytes()
    assert w2.tobytes() == (w * 2.0).tobytes()
    if stacked or n == 1:
        rows = np.array([nncore.forward(net, row[None])[0] for row in x])
        assert y.tobytes() == rows.reshape(n, net.output_dim).tobytes()
