import tracemalloc

import numpy as np
import pytest

from stockcast.checks import run_gradcheck_suite
from stockcast.errors import NonFiniteGradient, ShapeMismatch
from stockcast.experiment import TrainConfig, train
from stockcast.models import build_model
from stockcast.nn import autodiff as ad
from stockcast.nn.autodiff import Tensor, dense, mse
from stockcast.nn.gradcheck import grad_check
from stockcast.nn.optim import _BLOCK, Adam
from stockcast.nn.params import ParamSet


# --- dense -------------------------------------------------------------------

def test_dense_identity():
    y = dense(Tensor([[3.0, 4.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    assert np.allclose(y.data, [[3, 4]])


def test_dense_affine():
    y = dense(Tensor([[3.0, 4.0]]), Tensor([[1.0, 2.0]]), Tensor([1.0]))
    assert np.allclose(y.data, [[12.0]])


def test_dense_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dense(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    with pytest.raises(ShapeMismatch):  # input must be [batch, in]
        dense(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    with pytest.raises(ShapeMismatch):
        dense(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor(np.zeros(3)))


def test_dense_gradcheck_random_4x3():
    rng = np.random.default_rng(0)
    for _ in range(3):
        params = ParamSet({
            "W": Tensor(rng.standard_normal((4, 3))),
            "b": Tensor(rng.standard_normal(4)),
            "x": Tensor(rng.standard_normal((2, 3))),
        })
        target = Tensor(rng.standard_normal((2, 4)))
        err = grad_check(lambda p: mse(dense(p["x"], p["W"], p["b"]), target), params)
        assert err < 1e-6


def test_dense_backward_is_one_node():
    rng = np.random.default_rng(15)
    x, W, b = (Tensor(rng.standard_normal(s)) for s in ((5, 3), (4, 3), (4,)))
    y = dense(x, W, b)
    assert y._parents == (x, W, b)
    np.testing.assert_array_equal(y.data, x.data @ W.data.T + b.data)
    g = rng.standard_normal((5, 4))
    y._backward(g)
    np.testing.assert_array_equal(x.grad, g @ W.data)
    np.testing.assert_array_equal(W.grad, g.T @ x.data)
    np.testing.assert_array_equal(b.grad, g.sum(axis=0))


# --- conv / pool -------------------------------------------------------------

def test_conv1d_identity_kernel():
    x = np.array([[[1.0, 3.0, 6.0, 2.0]]])
    y = ad.conv1d_channels(Tensor(x), Tensor([[[1.0]]]), Tensor([0.0]))
    assert np.allclose(y.data, x)


def test_conv1d_first_difference():
    y = ad.conv1d_channels(Tensor([[[1.0, 3.0, 6.0]]]), Tensor([[[1.0, -1.0]]]),
                           Tensor([0.0]))
    assert np.allclose(y.data, [[[-2.0, -3.0]]])


def test_conv1d_gradcheck():
    rng = np.random.default_rng(1)
    params = ParamSet({
        "K": Tensor(rng.standard_normal((3, 2, 3))),
        "b": Tensor(rng.standard_normal(3)),
        "x": Tensor(rng.standard_normal((2, 2, 8))),
    })
    target = Tensor(rng.standard_normal((2, 3, 6)))
    err = grad_check(lambda p: mse(ad.conv1d_channels(p["x"], p["K"], p["b"]), target),
                     params)
    assert err < 1e-6


def test_maxpool_basic():
    y = ad.maxpool1d_op(Tensor([[[1.0, 5.0, 2.0, 3.0]]]), 2)
    assert np.allclose(y.data, [[[5.0, 3.0]]])


def test_maxpool_pool1_identity():
    x = np.array([[[4.0, 1.0, 2.0]]])
    assert np.allclose(ad.maxpool1d_op(Tensor(x), 1).data, x)


def test_maxpool_drops_remainder():
    assert np.allclose(ad.maxpool1d_op(Tensor([[[1.0, 2.0, 9.0]]]), 2).data, [[[2.0]]])


def test_maxpool_tie_breaks_first():
    x = Tensor([[[2.0, 2.0]]])
    ad.maxpool1d_op(x, 2)._backward(np.ones((1, 1, 1)))
    assert np.allclose(x.grad, [[[1.0, 0.0]]])


def test_maxpool_gradcheck_non_tied():
    x = np.array([0.3, -1.2, 2.0, 0.7, -0.5, 1.1, 1.6, -0.9]).reshape(1, 2, 4)
    params = ParamSet({"x": Tensor(x)})
    target = Tensor(np.random.default_rng(16).standard_normal((1, 2, 2)))
    err = grad_check(lambda p: mse(ad.maxpool1d_op(p["x"], 2), target), params)
    assert err < 1e-6


# --- gradient accumulation ----------------------------------------------------

def test_shared_operand_gradients_accumulate():
    # `a` reaches the loss twice, as the dense input through reshape and as
    # the weight through relu: y = sum_i a_i relu(a_i), loss = y^2
    a = Tensor([[1.0, -2.0, 3.0]])
    x = ad.reshape(a, (1, 3))
    mse(dense(x, ad.relu(a), Tensor([0.0])), Tensor([[0.0]])).backward()
    # dloss/da_i = 2y (relu(a_i) + a_i [a_i > 0]) with y = 10
    assert np.array_equal(a.grad, [[40.0, 0.0, 120.0]])
    # reshape hands on a view of x.grad: adding the relu path into a.grad
    # must not write through it
    assert np.array_equal(x.grad, [[20.0, 0.0, 60.0]])


# --- activations -------------------------------------------------------------

def test_relu():
    assert np.allclose(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0, 0, 2])


def test_relu_subgradient_zero_at_zero():
    x = Tensor([0.0])
    ad.relu(x)._backward(np.ones(1))
    assert x.grad[0] == 0.0


# --- recurrent sequence ops ---------------------------------------------------
#
# The per-step cells below are the reference the fused sequence ops are
# checked against: one GRU or LSTM step in plain numpy, reading gate
# blocks out of the fused W [gates*n, n_in], U [gates*n, n] and
# b [gates*n].  Every function in them is analytic, so they run on
# complex arrays too, and complex-step differentiation (Squire & Trapp
# 1998) gives their gradients to machine precision: for a real loss L,
# dL/dp = Im L(p + i s) / s, with no subtractive cancellation for any s.

STEP = 1e-30


def _sig(a):
    return 1.0 / (1.0 + np.exp(-a))


def _gate(x_t, h, W, U, b, k, n):
    block = slice(k * n, (k + 1) * n)
    return x_t @ W[block].T + h @ U[block].T + b[block]


def gru_cell(x_t, h_prev, W, U, b):
    """z = sigmoid(W_z x + U_z h + b_z); r = sigmoid(W_r x + U_r h + b_r);
    h~ = tanh(W_h x + U_h (r * h) + b_h); h' = (1 - z) * h + z * h~."""
    n = h_prev.shape[-1]
    z = _sig(_gate(x_t, h_prev, W, U, b, 0, n))
    r = _sig(_gate(x_t, h_prev, W, U, b, 1, n))
    h_tilde = np.tanh(_gate(x_t, r * h_prev, W, U, b, 2, n))
    return h_prev + z * (h_tilde - h_prev)


def lstm_cell(x_t, h_prev, c_prev, W, U, b):
    """i, f, o = sigmoid gates; g = tanh(W_g x + U_g h + b_g);
    c' = f * c + i * g;  h' = o * tanh(c')."""
    n = h_prev.shape[-1]
    i, f, o = (_sig(_gate(x_t, h_prev, W, U, b, k, n)) for k in range(3))
    g = np.tanh(_gate(x_t, h_prev, W, U, b, 3, n))
    c_t = f * c_prev + i * g
    return o * np.tanh(c_t), c_t


def reference_seq(kind, x, W, U, b):
    """The per-step cells unrolled from zero state: H [B, T, n]."""
    B, T, _ = x.shape
    n = U.shape[1]
    h = c = np.zeros((B, n), dtype=np.result_type(x, W, U, b))
    states = []
    for t in range(T):
        if kind == "GRU":
            h = gru_cell(x[:, t], h, W, U, b)
        else:
            h, c = lstm_cell(x[:, t], h, c, W, U, b)
        states.append(h)
    return np.stack(states, axis=1)


def complex_step_grads(kind, arrays, target):
    """d mean((H - target)^2) / d each of x, W, U, b, one complex step per entry."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.empty(a.shape)
        for idx in np.ndindex(a.shape):
            stepped = [p.astype(np.complex128) for p in arrays]
            stepped[k][idx] += STEP * 1j
            loss = np.mean((reference_seq(kind, *stepped) - target) ** 2)
            g[idx] = loss.imag / STEP
        grads.append(g)
    return grads


SEQ_OPS = {"GRU": (ad.gru_seq, 3), "LSTM": (ad.lstm_seq, 4)}


def seq_tensors(rng, kind, B, T, n_in, n, scale=0.5):
    gates = SEQ_OPS[kind][1]
    return (Tensor(rng.standard_normal((B, T, n_in))),
            Tensor(scale * rng.standard_normal((gates * n, n_in))),
            Tensor(scale * rng.standard_normal((gates * n, n))),
            Tensor(scale * rng.standard_normal(gates * n)))


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
@pytest.mark.parametrize("B,T,n_in,n", [(2, 3, 2, 4), (5, 7, 3, 6), (3, 1, 1, 5)])
def test_seq_op_matches_per_step_cells(kind, B, T, n_in, n):
    rng = np.random.default_rng((B, T, n_in, n))
    target = rng.standard_normal((B, T, n))
    inputs = seq_tensors(rng, kind, B, T, n_in, n)
    H = SEQ_OPS[kind][0](*inputs)
    mse(H, Tensor(target)).backward()
    arrays = [t.data for t in inputs]
    assert H.shape == (B, T, n)
    np.testing.assert_allclose(H.data, reference_seq(kind, *arrays), rtol=1e-12, atol=1e-12)
    for name, t, g_ref in zip("xWUb", inputs, complex_step_grads(kind, arrays, target)):
        np.testing.assert_allclose(t.grad, g_ref, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_seq_op_rejects_wrong_shapes(kind):
    rng = np.random.default_rng(0)
    x, W, U, b = seq_tensors(rng, kind, 2, 3, 2, 4)
    seq = SEQ_OPS[kind][0]
    with pytest.raises(ShapeMismatch):
        seq(Tensor(x.data[0]), W, U, b)
    with pytest.raises(ShapeMismatch):
        seq(x, W, U, Tensor(b.data[1:]))
    with pytest.raises(ShapeMismatch):
        seq(Tensor(x.data[:, :, :1]), W, U, b)


# array forward and the number of state arrays a layer carries (h; h and c)
SEQ_FORWARDS = {"GRU": (ad.gru_forward, 1), "LSTM": (ad.lstm_forward, 2)}


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_seq_forward_without_state_is_the_graph_op(kind):
    rng = np.random.default_rng(23)
    x, W, U, b = seq_tensors(rng, kind, 4, 6, 3, 5)
    H = SEQ_OPS[kind][0](x, W, U, b).data
    got = SEQ_FORWARDS[kind][0](x.data.transpose(1, 0, 2), W.data, U.data, b.data)[0]
    assert np.array_equal(got.transpose(1, 0, 2), H)


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
@pytest.mark.parametrize("split", [1, 3, 5])
def test_seq_forward_resumed_from_a_state_is_the_whole_run(kind, split):
    rng = np.random.default_rng(24)
    x, W, U, b = (t.data for t in seq_tensors(rng, kind, 4, 6, 3, 5))
    xt = x.transpose(1, 0, 2)
    fwd, n_state = SEQ_FORWARDS[kind]
    whole = fwd(xt, W, U, b)[:n_state]
    first = fwd(xt[:split], W, U, b)[:n_state]
    second = fwd(xt[split:], W, U, b, *(s[-1] for s in first))[:n_state]
    for w_, f_, s_ in zip(whole, first, second):
        assert np.array_equal(np.concatenate([f_, s_]), w_)


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_seq_forward_rejects_wrong_state(kind):
    rng = np.random.default_rng(25)
    x, W, U, b = (t.data for t in seq_tensors(rng, kind, 4, 6, 3, 5))
    fwd, n_state = SEQ_FORWARDS[kind]
    with pytest.raises(ShapeMismatch):
        fwd(x.transpose(1, 0, 2), W, U, b, *[np.zeros((3, 5))] * n_state)
    if n_state == 2:
        with pytest.raises(ShapeMismatch):  # h without c
            fwd(x.transpose(1, 0, 2), W, U, b, np.zeros((4, 5)))


def zero_seq_params(kind, n_in=2, n=3):
    gates = SEQ_OPS[kind][1]
    return (Tensor(np.zeros((gates * n, n_in))), Tensor(np.zeros((gates * n, n))),
            Tensor(np.zeros(gates * n)))


def test_gru_zero_params_zero_state():
    H = ad.gru_seq(Tensor([[[1.0, -2.0], [0.5, 3.0]]]), *zero_seq_params("GRU"))
    assert np.allclose(H.data, 0.0)


def test_gru_update_gate_saturation():
    rng = np.random.default_rng(2)
    x, W, U, b = seq_tensors(rng, "GRU", 2, 4, 2, 3)
    b.data[:3] = 30.0
    H = ad.gru_seq(x, W, U, b).data
    # z ~= 1, so each state is the candidate alone: h_t = h~_t
    for t in range(4):
        h_prev = H[:, t - 1] if t else np.zeros((2, 3))
        r = 1.0 / (1.0 + np.exp(-(x.data[:, t] @ W.data[3:6].T + h_prev @ U.data[3:6].T
                                  + b.data[3:6])))
        h_tilde = np.tanh(x.data[:, t] @ W.data[6:].T + (r * h_prev) @ U.data[6:].T
                          + b.data[6:])
        assert np.max(np.abs(H[:, t] - h_tilde)) < 1e-9


def test_gru_unrolled_gradcheck():
    rng = np.random.default_rng(3)
    x, W, U, b = seq_tensors(rng, "GRU", 2, 3, 2, 4)
    params = ParamSet({"x": x, "W": W, "U": U, "b": b})
    target = Tensor(rng.standard_normal((2, 3, 4)))
    f = lambda p: mse(ad.gru_seq(p["x"], p["W"], p["U"], p["b"]), target)  # noqa: E731
    assert grad_check(f, params) < 1e-5


def test_gru_hidden_state_bounded():
    rng = np.random.default_rng(4)
    _, W, U, b = seq_tensors(rng, "GRU", 1, 1, 1, 5, scale=2.0)
    x = Tensor(np.sin(np.arange(50.0))[None, :, None])
    assert np.max(np.abs(ad.gru_seq(x, W, U, b).data)) <= 1.0 + 1e-12


def test_lstm_zero_params():
    H = ad.lstm_seq(Tensor([[[1.0, 2.0], [-1.0, 0.5]]]), *zero_seq_params("LSTM"))
    assert np.allclose(H.data, 0.0)


def test_lstm_pure_memory_saturation():
    # f ~= 1 and i ~= 1 with U = 0: the cell sums the candidates,
    # c_t = g_1 + ... + g_t, and h_t = o_t * tanh(c_t)
    rng = np.random.default_rng(5)
    x, W, U, b = seq_tensors(rng, "LSTM", 2, 5, 2, 3)
    U.data[:] = 0.0
    b.data[:6] = 30.0
    H = ad.lstm_seq(x, W, U, b).data
    pre = x.data @ W.data.T + b.data
    o = 1.0 / (1.0 + np.exp(-pre[..., 6:9]))
    c = np.cumsum(np.tanh(pre[..., 9:]), axis=1)
    assert np.max(np.abs(H - o * np.tanh(c))) < 1e-9


def test_lstm_unrolled_gradcheck():
    rng = np.random.default_rng(6)
    x, W, U, b = seq_tensors(rng, "LSTM", 2, 3, 2, 4)
    params = ParamSet({"x": x, "W": W, "U": U, "b": b})
    target = Tensor(rng.standard_normal((2, 3, 4)))
    f = lambda p: mse(ad.lstm_seq(p["x"], p["W"], p["U"], p["b"]), target)  # noqa: E731
    assert grad_check(f, params) < 1e-5


def test_lstm_hidden_state_bounded():
    rng = np.random.default_rng(7)
    _, W, U, b = seq_tensors(rng, "LSTM", 1, 1, 1, 5, scale=2.0)
    x = Tensor(np.cos(np.arange(50.0))[None, :, None])
    assert np.max(np.abs(ad.lstm_seq(x, W, U, b).data)) <= 1.0 + 1e-12


# --- loss --------------------------------------------------------------------

def test_mse_zero_on_equal():
    x = Tensor([0.3, 0.7])
    assert float(mse(x, Tensor([0.3, 0.7])).data) == 0.0


def test_mse_value():
    assert float(mse(Tensor([0.0, 0.0]), Tensor([1.0, 1.0])).data) == pytest.approx(1.0)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mse(Tensor([1.0]), Tensor([1.0, 2.0]))


def test_mse_gradient():
    rng = np.random.default_rng(8)
    pred, target = Tensor(rng.standard_normal(5)), Tensor(rng.standard_normal(5))
    mse(pred, target).backward()
    expected = 2.0 * (pred.data - target.data) / 5
    np.testing.assert_allclose(pred.grad, expected, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(target.grad, -pred.grad)
    params = ParamSet({"pred": Tensor(pred.data.copy()), "target": Tensor(target.data.copy())})
    assert grad_check(lambda p: mse(p["pred"], p["target"]), params) < 1e-8


# --- Adam --------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    params = ParamSet({"w": Tensor([1.0, -2.0])})
    opt = Adam(params)
    before = params["w"].data.copy()
    for _ in range(10):
        params.zero_grad()
        opt.step()
    assert np.array_equal(params["w"].data, before)


def test_adam_first_step_hand_value():
    params = ParamSet({"w": Tensor([0.0])})
    opt = Adam(params, lr=1e-3)
    params["w"].grad = np.array([1.0])
    opt.step()
    # bias-corrected first step: -lr / (1 + eps)
    assert params["w"].data[0] == pytest.approx(-9.9999999e-4, rel=1e-7)


def test_adam_constant_gradient_limit():
    params = ParamSet({"w": Tensor([0.0])})
    opt = Adam(params, lr=1e-3)
    steps = []
    for _ in range(500):
        prev = params["w"].data[0]
        params["w"].grad = np.array([2.5])
        opt.step()
        steps.append(prev - params["w"].data[0])
    # update magnitude converges to lr, direction opposes the gradient
    assert steps[-1] == pytest.approx(1e-3, rel=1e-3)


def test_adam_shape_mismatch():
    params = ParamSet({"w": Tensor([1.0, 2.0])})
    opt = Adam(params)
    params["w"].grad = np.zeros(3)
    with pytest.raises(ShapeMismatch):
        opt.step()


def test_adam_step_equals_written_out_formula():
    # the update runs in blocks of _BLOCK elements: these shapes span
    # several blocks, end in a partial one, or fit in one
    rng = np.random.default_rng(14)
    shapes = {"W": (3, _BLOCK // 2 + 1), "u": (2 * _BLOCK + 5,), "b": (4,)}
    params = ParamSet({k: Tensor(rng.standard_normal(v)) for k, v in shapes.items()})
    opt = Adam(params, lr=3e-3)
    p_ref = {k: t.data.copy() for k, t in params.items()}
    m = {k: np.zeros(v) for k, v in shapes.items()}
    v_ = {k: np.zeros(v) for k, v in shapes.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
    for t in range(1, 9):
        grads = {k: rng.standard_normal(v) for k, v in shapes.items()}
        for k, t_ in params.items():
            t_.grad = grads[k].copy()
        opt.step()
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v_[k] = b2 * v_[k] + (1.0 - b2) * g * g
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v_[k] / (1.0 - b2 ** t)
            p_ref[k] = p_ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(params[k].data, p_ref[k]), (k, t)


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_training_peak_memory_bound(kind):
    # parameters, gradients, m and v are 4x the parameter bytes; the
    # update's scratch is block-sized and gradients are kept as computed,
    # so an epoch's peak (activations included) stays below 6.5x
    rng = np.random.default_rng(21)
    X, Y = rng.standard_normal((100, 5)), rng.standard_normal((100, 1))
    tracemalloc.start()
    try:
        model = build_model(kind, 5, 1, seed=2)
        param_bytes = sum(p.data.nbytes for _, p in model.params.items())
        tracemalloc.reset_peak()
        train(model, X, Y, TrainConfig(epochs=1, batch_size=32, seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * param_bytes, peak / param_bytes


@pytest.mark.parametrize("kind", ["MLP", "CNN", "GRU", "LSTM"])
def test_gradients_own_their_memory(kind):
    # _accum keeps a first gradient without copying it.  Every node's
    # gradient must still be its own C-order array: a shared one would be
    # added into through another node, and other layouts change how the
    # backward reductions round
    model = build_model(kind, 5, 1, seed=2)
    x = Tensor(np.random.default_rng(22).standard_normal((4, 5)))
    loss = mse(model.forward(x), Tensor(np.zeros((4, 1))))
    loss.backward()
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    assert all(p.grad is not None for _, p in model.params.items())
    grads = [node.grad for node in nodes.values() if node.grad is not None]
    assert all(g.flags.c_contiguous for g in grads)
    for i, g in enumerate(grads):
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)


def test_paramset_rejects_non_contiguous_data():
    with pytest.raises(ShapeMismatch, match="C-contiguous"):
        ParamSet({"W": Tensor(np.ones((3, 4)).T)})


# --- grad_check behavior ------------------------------------------------------

def test_grad_check_exact_quadratic():
    params = ParamSet({"w": Tensor([1.0, -2.0, 3.0])})
    assert grad_check(lambda p: mse(p["w"], Tensor(np.zeros(3))), params) < 1e-9


def test_grad_check_eps_range():
    params = ParamSet({"w": Tensor([1.0])})
    with pytest.raises(ValueError):
        grad_check(lambda p: mse(p["w"], Tensor([0.0])), params, eps=1e-2)


def test_grad_check_non_finite():
    # w - target overflows to inf, and so does its gradient
    params = ParamSet({"w": Tensor([0.0, 1e308])})

    def f(p):
        return mse(p["w"], Tensor([0.0, -1e308]))

    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteGradient):
            grad_check(f, params)


def test_full_suite_green():
    for result in run_gradcheck_suite():
        assert result.passed, f"{result.name}: {result.worst_error}"


# --- determinism and serialization -------------------------------------------

def test_forward_deterministic():
    rng = np.random.default_rng(9)
    W, b, x = rng.standard_normal((4, 4)), rng.standard_normal(4), rng.standard_normal((2, 4))
    a = dense(Tensor(x), Tensor(W), Tensor(b)).data
    b2 = dense(Tensor(x), Tensor(W), Tensor(b)).data
    assert np.array_equal(a, b2)
