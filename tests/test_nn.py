import math
import tracemalloc

import numpy as np
import pytest

from stockcast import checks
from stockcast.checks import grad_check, run_gradcheck_suite
from stockcast.errors import NonFiniteGradient, ShapeMismatch
from stockcast.experiment import TrainConfig, train
from stockcast.models import KINDS, build_model
from stockcast.nn.layers import (
    Layer,
    backprop,
    conv1d,
    dense,
    gru,
    gru_forward,
    lstm,
    lstm_forward,
    maxpool,
    mse_loss,
    relu,
    run,
)
from stockcast.nn.optim import _BLOCK, Adam
from stockcast.nn.params import ParamSet


# --- dense -------------------------------------------------------------------

def test_dense_identity():
    y, _ = dense.forward(np.array([[3.0, 4.0]]), np.eye(2), np.zeros(2))
    assert np.allclose(y, [[3, 4]])


def test_dense_affine():
    y, _ = dense.forward(np.array([[3.0, 4.0]]), np.array([[1.0, 2.0]]), np.array([1.0]))
    assert np.allclose(y, [[12.0]])


def test_dense_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dense.forward(np.array([[1.0, 2.0, 3.0]]), np.eye(2), np.zeros(2))
    with pytest.raises(ShapeMismatch):  # input must be [batch, ...]
        dense.forward(np.array([1.0, 2.0]), np.eye(2), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        dense.forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(3))


def test_dense_gradcheck_random_4x3():
    rng = np.random.default_rng(0)
    for _ in range(3):
        params = ParamSet({
            "W": rng.standard_normal((4, 3)),
            "b": rng.standard_normal(4),
            "x": rng.standard_normal((2, 3)),
        })
        target = rng.standard_normal((2, 4))
        assert grad_check([(dense, ("W", "b"))], params, params["x"], target) < 1e-6


def test_dense_backward_is_one_node():
    # one layer: the input flattened to [batch, in], then affine; the
    # input's gradient comes back in the input's shape
    rng = np.random.default_rng(15)
    x, W, b = (rng.standard_normal(s) for s in ((5, 2, 3), (4, 6), (4,)))
    y, cache = dense.forward(x, W, b)
    flat = x.reshape(5, 6)
    np.testing.assert_array_equal(y, flat @ W.T + b)
    g = rng.standard_normal((5, 4))
    dx, (dW, db) = dense.backward(cache, g, W, b)
    np.testing.assert_array_equal(dx, (g @ W).reshape(5, 2, 3))
    np.testing.assert_array_equal(dW, g.T @ flat)
    np.testing.assert_array_equal(db, g.sum(axis=0))


# --- conv / pool -------------------------------------------------------------

def test_conv1d_identity_kernel():
    x = np.array([[[1.0, 3.0, 6.0, 2.0]]])
    y, _ = conv1d.forward(x, np.array([[[1.0]]]), np.array([0.0]))
    assert np.allclose(y, x)


def test_conv1d_first_difference():
    y, _ = conv1d.forward(np.array([[[1.0, 3.0, 6.0]]]), np.array([[[1.0, -1.0]]]),
                          np.array([0.0]))
    assert np.allclose(y, [[[-2.0, -3.0]]])


def test_conv1d_gradcheck():
    rng = np.random.default_rng(1)
    params = ParamSet({
        "K": rng.standard_normal((3, 2, 3)),
        "b": rng.standard_normal(3),
        "x": rng.standard_normal((2, 2, 8)),
    })
    target = rng.standard_normal((2, 3, 6))
    assert grad_check([(conv1d, ("K", "b"))], params, params["x"], target) < 1e-6


def test_maxpool_basic():
    y, _ = maxpool(2).forward(np.array([[[1.0, 5.0, 2.0, 3.0]]]))
    assert np.allclose(y, [[[5.0, 3.0]]])


def test_maxpool_pool1_identity():
    x = np.array([[[4.0, 1.0, 2.0]]])
    assert np.allclose(maxpool(1).forward(x)[0], x)


def test_maxpool_drops_remainder():
    assert np.allclose(maxpool(2).forward(np.array([[[1.0, 2.0, 9.0]]]))[0], [[[2.0]]])


def test_maxpool_tie_breaks_first():
    pool = maxpool(2)
    _, cache = pool.forward(np.array([[[2.0, 2.0]]]))
    dx, _ = pool.backward(cache, np.ones((1, 1, 1)))
    assert np.allclose(dx, [[[1.0, 0.0]]])


def test_maxpool_gradcheck_non_tied():
    x = np.array([0.3, -1.2, 2.0, 0.7, -0.5, 1.1, 1.6, -0.9]).reshape(1, 2, 4)
    target = np.random.default_rng(16).standard_normal((1, 2, 2))
    assert grad_check([(maxpool(2), ())], ParamSet({"x": x}), x, target) < 1e-6


# --- activations -------------------------------------------------------------

def test_relu():
    assert np.allclose(relu.forward(np.array([-1.0, 0.0, 2.0]))[0], [0, 0, 2])


def test_relu_subgradient_zero_at_zero():
    _, mask = relu.forward(np.array([0.0]))
    dx, _ = relu.backward(mask, np.ones(1))
    assert dx[0] == 0.0


# --- recurrent sequence layers -------------------------------------------------
#
# The per-step cells below are the reference the fused sequence layers are
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


SEQ_LAYERS = {"GRU": (gru, 3), "LSTM": (lstm, 4)}

# batch-major [B, T, .] <-> time-major [T, B, .]
SWAP = Layer(lambda x: (x.transpose(1, 0, 2), None), lambda _, g: (g.transpose(1, 0, 2), ()))


def seq_chain(kind):
    """The sequence layer of `kind` over batch-major x [B, T, n_in], every
    hidden state out, [B, T, n]."""
    return [(SWAP, ()), (SEQ_LAYERS[kind][0], ("W", "U", "b")), (SWAP, ())]


def seq_H(kind, x, W, U, b):
    return run(seq_chain(kind), {"W": W, "U": U, "b": b}, x)[0]


def seq_arrays(rng, kind, B, T, n_in, n, scale=0.5):
    """x [B, T, n_in] and the layer's W, U and b."""
    gates = SEQ_LAYERS[kind][1]
    return (rng.standard_normal((B, T, n_in)),
            scale * rng.standard_normal((gates * n, n_in)),
            scale * rng.standard_normal((gates * n, n)),
            scale * rng.standard_normal(gates * n))


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
@pytest.mark.parametrize("B,T,n_in,n", [(2, 3, 2, 4), (5, 7, 3, 6), (3, 1, 1, 5)])
def test_seq_op_matches_per_step_cells(kind, B, T, n_in, n):
    rng = np.random.default_rng((B, T, n_in, n))
    target = rng.standard_normal((B, T, n))
    arrays = seq_arrays(rng, kind, B, T, n_in, n)
    x, W, U, b = arrays
    H = seq_H(kind, *arrays)
    _, grads = mse_loss(seq_chain(kind), {"W": W, "U": U, "b": b}, x, target)
    assert H.shape == (B, T, n)
    np.testing.assert_allclose(H, reference_seq(kind, *arrays), rtol=1e-12, atol=1e-12)
    for name, g_ref in zip("xWUb", complex_step_grads(kind, arrays, target)):
        np.testing.assert_allclose(grads[name], g_ref, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_seq_op_rejects_wrong_shapes(kind):
    rng = np.random.default_rng(0)
    x, W, U, b = seq_arrays(rng, kind, 2, 3, 2, 4)
    xt = x.transpose(1, 0, 2)
    forward = SEQ_LAYERS[kind][0].forward
    with pytest.raises(ShapeMismatch):
        forward(xt[0], W, U, b)
    with pytest.raises(ShapeMismatch):
        forward(xt, W, U, b[1:])
    with pytest.raises(ShapeMismatch):
        forward(xt[:, :, :1], W, U, b)
    with pytest.raises(ShapeMismatch):  # no steps
        forward(xt[:0], W, U, b)


# array forward and the number of state arrays a layer carries (h; h and c)
SEQ_FORWARDS = {"GRU": (gru_forward, 1), "LSTM": (lstm_forward, 2)}


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_seq_forward_without_state_is_the_zero_state(kind):
    # with no state, step 0 skips the recurrent matmul
    rng = np.random.default_rng(23)
    x, W, U, b = seq_arrays(rng, kind, 4, 6, 3, 5)
    xt = x.transpose(1, 0, 2)
    fwd, n_state = SEQ_FORWARDS[kind]
    got = fwd(xt, W, U, b)[1][:n_state]
    want = fwd(xt, W, U, b, *[np.zeros((4, 5))] * n_state)[1][:n_state]
    for g_, w_ in zip(got, want):
        assert np.array_equal(g_, w_)


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
@pytest.mark.parametrize("split", [1, 3, 5])
def test_seq_forward_resumed_from_a_state_is_the_whole_run(kind, split):
    rng = np.random.default_rng(24)
    x, W, U, b = seq_arrays(rng, kind, 4, 6, 3, 5)
    xt = x.transpose(1, 0, 2)
    fwd, n_state = SEQ_FORWARDS[kind]
    whole = fwd(xt, W, U, b)[1][:n_state]
    first = fwd(xt[:split], W, U, b)[1][:n_state]
    second = fwd(xt[split:], W, U, b, *(s[-1] for s in first))[1][:n_state]
    for w_, f_, s_ in zip(whole, first, second):
        assert np.array_equal(np.concatenate([f_, s_]), w_)


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_seq_forward_rejects_wrong_state(kind):
    rng = np.random.default_rng(25)
    x, W, U, b = seq_arrays(rng, kind, 4, 6, 3, 5)
    fwd, n_state = SEQ_FORWARDS[kind]
    with pytest.raises(ShapeMismatch):
        fwd(x.transpose(1, 0, 2), W, U, b, *[np.zeros((3, 5))] * n_state)
    if n_state == 2:
        with pytest.raises(ShapeMismatch):  # h without c
            fwd(x.transpose(1, 0, 2), W, U, b, np.zeros((4, 5)))


def zero_seq_params(kind, n_in=2, n=3):
    gates = SEQ_LAYERS[kind][1]
    return np.zeros((gates * n, n_in)), np.zeros((gates * n, n)), np.zeros(gates * n)


def test_gru_zero_params_zero_state():
    H = seq_H("GRU", np.array([[[1.0, -2.0], [0.5, 3.0]]]), *zero_seq_params("GRU"))
    assert np.allclose(H, 0.0)


def test_gru_update_gate_saturation():
    rng = np.random.default_rng(2)
    x, W, U, b = seq_arrays(rng, "GRU", 2, 4, 2, 3)
    b[:3] = 30.0
    H = seq_H("GRU", x, W, U, b)
    # z ~= 1, so each state is the candidate alone: h_t = h~_t
    for t in range(4):
        h_prev = H[:, t - 1] if t else np.zeros((2, 3))
        r = 1.0 / (1.0 + np.exp(-(x[:, t] @ W[3:6].T + h_prev @ U[3:6].T + b[3:6])))
        h_tilde = np.tanh(x[:, t] @ W[6:].T + (r * h_prev) @ U[6:].T + b[6:])
        assert np.max(np.abs(H[:, t] - h_tilde)) < 1e-9


def test_gru_unrolled_gradcheck():
    rng = np.random.default_rng(3)
    x, W, U, b = seq_arrays(rng, "GRU", 2, 3, 2, 4)
    params = ParamSet({"x": x, "W": W, "U": U, "b": b})
    target = rng.standard_normal((2, 3, 4))
    assert grad_check(seq_chain("GRU"), params, x, target) < 1e-5


def test_gru_hidden_state_bounded():
    rng = np.random.default_rng(4)
    _, W, U, b = seq_arrays(rng, "GRU", 1, 1, 1, 5, scale=2.0)
    x = np.sin(np.arange(50.0))[None, :, None]
    assert np.max(np.abs(seq_H("GRU", x, W, U, b))) <= 1.0 + 1e-12


def test_lstm_zero_params():
    H = seq_H("LSTM", np.array([[[1.0, 2.0], [-1.0, 0.5]]]), *zero_seq_params("LSTM"))
    assert np.allclose(H, 0.0)


def test_lstm_pure_memory_saturation():
    # f ~= 1 and i ~= 1 with U = 0: the cell sums the candidates,
    # c_t = g_1 + ... + g_t, and h_t = o_t * tanh(c_t)
    rng = np.random.default_rng(5)
    x, W, U, b = seq_arrays(rng, "LSTM", 2, 5, 2, 3)
    U[:] = 0.0
    b[:6] = 30.0
    H = seq_H("LSTM", x, W, U, b)
    pre = x @ W.T + b
    o = 1.0 / (1.0 + np.exp(-pre[..., 6:9]))
    c = np.cumsum(np.tanh(pre[..., 9:]), axis=1)
    assert np.max(np.abs(H - o * np.tanh(c))) < 1e-9


def test_lstm_unrolled_gradcheck():
    rng = np.random.default_rng(6)
    x, W, U, b = seq_arrays(rng, "LSTM", 2, 3, 2, 4)
    params = ParamSet({"x": x, "W": W, "U": U, "b": b})
    target = rng.standard_normal((2, 3, 4))
    assert grad_check(seq_chain("LSTM"), params, x, target) < 1e-5


def test_lstm_hidden_state_bounded():
    rng = np.random.default_rng(7)
    _, W, U, b = seq_arrays(rng, "LSTM", 1, 1, 1, 5, scale=2.0)
    x = np.cos(np.arange(50.0))[None, :, None]
    assert np.max(np.abs(seq_H("LSTM", x, W, U, b))) <= 1.0 + 1e-12


# --- loss --------------------------------------------------------------------

def test_mse_zero_on_equal():
    x = np.array([0.3, 0.7])
    assert mse_loss([], {}, x, x.copy(), grads=False) == 0.0


def test_mse_value():
    assert mse_loss([], {}, np.zeros(2), np.ones(2), grads=False) == pytest.approx(1.0)


def test_mse_shape_mismatch():
    for grads in (True, False):
        with pytest.raises(ShapeMismatch):
            mse_loss([], {}, np.array([1.0]), np.array([1.0, 2.0]), grads)


def test_mse_gradient():
    rng = np.random.default_rng(8)
    pred, target = rng.standard_normal(5), rng.standard_normal(5)
    _, grads = mse_loss([], {}, pred, target)
    np.testing.assert_array_equal(grads["x"], 2 * (pred - target) / 5)
    x = pred.copy()
    assert grad_check([], ParamSet({"x": x}), x, target) < 1e-8


# --- Adam --------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    params = ParamSet({"w": np.array([1.0, -2.0])})
    opt = Adam(params)
    before = params["w"].copy()
    for _ in range(10):
        opt.step({"w": np.zeros(2)})
    assert np.array_equal(params["w"], before)


def test_adam_first_step_hand_value():
    params = ParamSet({"w": np.array([0.0])})
    opt = Adam(params, lr=1e-3)
    opt.step({"w": np.array([1.0])})
    # bias-corrected first step: -lr / (1 + eps)
    assert params["w"][0] == pytest.approx(-9.9999999e-4, rel=1e-7)


def test_adam_constant_gradient_limit():
    params = ParamSet({"w": np.array([0.0])})
    opt = Adam(params, lr=1e-3)
    steps = []
    for _ in range(500):
        prev = params["w"][0]
        opt.step({"w": np.array([2.5])})
        steps.append(prev - params["w"][0])
    # update magnitude converges to lr, direction opposes the gradient
    assert steps[-1] == pytest.approx(1e-3, rel=1e-3)


def test_adam_shape_mismatch():
    opt = Adam(ParamSet({"w": np.array([1.0, 2.0])}))
    with pytest.raises(ShapeMismatch):
        opt.step({"w": np.zeros(3)})


def test_adam_rejects_a_missing_gradient():
    # every parameter gets one gradient per step: a missing one is a bug,
    # not a zero gradient that would still decay m and v and move it
    params = ParamSet({"w": np.array([1.0, 2.0]), "b": np.array([0.5])})
    opt = Adam(params)
    with pytest.raises(ShapeMismatch, match="no gradient for parameter b"):
        opt.step({"w": np.ones(2)})
    assert params["b"][0] == 0.5 and opt.m["b"][0] == 0.0


def test_adam_step_equals_written_out_formula():
    # the update runs in blocks of _BLOCK elements: these shapes span
    # several blocks, end in a partial one, or fit in one.  The reference
    # is the scaled recurrence of the Adam docstring with plain temporaries
    rng = np.random.default_rng(14)
    shapes = {"W": (3, _BLOCK // 2 + 1), "u": (2 * _BLOCK + 5,), "b": (4,)}
    params = ParamSet({k: rng.standard_normal(v) for k, v in shapes.items()})
    opt = Adam(params, lr=3e-3)
    p_ref = {k: p.copy() for k, p in params.items()}
    M = {k: np.zeros(v) for k, v in shapes.items()}
    V = {k: np.zeros(v) for k, v in shapes.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
    for t in range(1, 9):
        grads = {k: rng.standard_normal(v) for k, v in shapes.items()}
        opt.step({k: g.copy() for k, g in grads.items()})
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        k_t = math.sqrt((1.0 - b2) / c2)
        s_t = lr * (1.0 - b1) / (c1 * k_t)
        eps_t = eps / k_t
        for k, g in grads.items():
            M[k] = b1 * M[k] + g
            V[k] = b2 * V[k] + g * g
            p_ref[k] = p_ref[k] - M[k] / (np.sqrt(V[k]) + eps_t) * s_t
            assert np.array_equal(params[k], p_ref[k]), (k, t)
            assert np.array_equal(opt.m[k], M[k].reshape(-1)), (k, t)
            assert np.array_equal(opt.v[k], V[k].reshape(-1)), (k, t)


def test_adam_matches_the_textbook_update_over_long_runs():
    # Kingma & Ba's reordered form against the textbook update with
    # unscaled moments, over 1,100 steps whose gradient scale jumps from
    # 1e-6 to 1e3 and back, with a stretch of zero gradients.  At 1e-6
    # sqrt(v_hat) is near eps, so a wrong eps_t shows.  |p| stays far
    # from 0 (each step moves it by at most lr (1-b1)/sqrt(1-b2) ~ 0.032)
    # so a relative tolerance applies
    rng = np.random.default_rng(15)
    n = 257
    p0 = rng.choice([-1.0, 1.0], n) * rng.uniform(50.0, 100.0, n)
    params = ParamSet({"w": p0.copy()})
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    p, m, v = p0.copy(), np.zeros(n), np.zeros(n)
    scales = [1e-6, 1e-3, 1.0, 1e3, 0.0, 1e3, 1e-6, 0.0, 1e-3, 1e2, 1.0]
    t = 0
    for scale in scales:
        for _ in range(100):
            t += 1
            g = scale * (rng.standard_normal(n) + 0.5)
            opt.step({"w": g.copy()})
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(params["w"], p, rtol=1e-12, atol=0.0)
    assert np.abs(p - p0).max() > 1.0


@pytest.mark.parametrize("arg,value", [
    ("lr", 0.0), ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf),
    ("beta1", -0.1), ("beta1", 1.0), ("beta1", math.nan),
    ("beta2", -0.1), ("beta2", 1.0), ("beta2", 1.5), ("beta2", math.nan),
    ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan), ("eps", math.inf),
])
def test_adam_rejects_bad_hyperparameters(arg, value):
    with pytest.raises(ValueError, match=f"Adam {arg} must be"):
        Adam(ParamSet({"w": np.array([1.0])}), **{arg: value})


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
        param_bytes = sum(p.nbytes for _, p in model.params.items())
        tracemalloc.reset_peak()
        train(model, X, Y, TrainConfig(epochs=1, batch_size=32, seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * param_bytes, peak / param_bytes


@pytest.mark.parametrize("kind", KINDS)
def test_gradients_own_their_memory(kind):
    # backprop gives every parameter exactly one gradient, shaped like it,
    # in memory that no other gradient and no parameter shares
    model = build_model(kind, 5, 1, seed=2)
    x = np.random.default_rng(22).standard_normal((4, 5))
    pred, caches = run(model.chain, model.params, x, keep=True)
    grads = backprop(model.chain, model.params, caches, np.ones_like(pred))[1]
    assert sorted(grads) == sorted(name for name, _ in model.params.items())
    for name, p in model.params.items():
        assert grads[name].shape == p.shape, name
    arrays = [*grads.values(), *(p for _, p in model.params.items())]
    for i, a in enumerate(arrays):
        for other in arrays[i + 1:]:
            assert not np.shares_memory(a, other)


@pytest.mark.parametrize("kind", KINDS)
def test_backward_rejects_consumed_caches(kind):
    # the first backward empties the list (and the recurrent ones write
    # their gate gradients over the cache), so a second has nothing to read
    model = build_model(kind, 5, 1, seed=2)
    x = np.random.default_rng(26).standard_normal((4, 5))
    pred, caches = run(model.chain, model.params, x, keep=True)
    backprop(model.chain, model.params, caches, np.ones_like(pred))
    assert caches == []
    with pytest.raises(ShapeMismatch, match=f"0 caches for a chain of {len(model.chain)}"):
        backprop(model.chain, model.params, caches, np.ones_like(pred))


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_epoch_peaks_no_higher_than_one_batch(kind):
    # each layer's cache is freed once its backward has run, so no step's
    # caches are alive while the next step's forward runs
    rng = np.random.default_rng(27)
    X, Y = rng.standard_normal((96, 30)), rng.standard_normal((96, 1))
    peaks = []
    for n in (32, 96):
        tracemalloc.start()
        try:
            model = build_model(kind, 30, 1, seed=2)
            tracemalloc.reset_peak()
            train(model, X[:n], Y[:n], TrainConfig(epochs=1, batch_size=32))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.02 * peaks[0], peaks[1] / peaks[0]


@pytest.mark.parametrize("kind,kept", [("GRU", 4), ("LSTM", 6)])
def test_seq_forward_keeps_no_rebuildable_array(kind, kept):
    # GRU: H and G [T, B, 3n]; LSTM: H, C and G [T, B, 4n]; the flat input
    # is a view of the C-contiguous x
    T, B, n_in, n = 30, 32, 1, 64
    rng = np.random.default_rng(28)
    _, W, U, b = seq_arrays(rng, kind, B, T, n_in, n)
    x = rng.standard_normal((T, B, n_in))
    tracemalloc.start()
    try:
        out = SEQ_FORWARDS[kind][0](x, W, U, b)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out[0].shape == (T, B, n)
    assert held <= 8 * T * B * kept * n + 4096, held / (8 * T * B * n)


def test_paramset_rejects_non_contiguous_data():
    with pytest.raises(ShapeMismatch, match="C-contiguous"):
        ParamSet({"W": np.ones((3, 4)).T})


# --- grad_check behavior ------------------------------------------------------

def test_grad_check_exact_quadratic():
    params = ParamSet({"x": np.array([1.0, -2.0, 3.0])})
    assert grad_check([], params, params["x"], np.zeros(3)) < 1e-9


def test_grad_check_eps_range():
    params = ParamSet({"x": np.array([1.0])})
    with pytest.raises(ValueError):
        grad_check([], params, params["x"], np.array([0.0]), eps=1e-2)


def test_grad_check_non_finite():
    # x - target overflows to inf, and so does its gradient
    params = ParamSet({"x": np.array([0.0, 1e308])})
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteGradient):
            grad_check([], params, params["x"], np.array([0.0, -1e308]))


def scaled_dense(dx_factor, dW_factor):
    """dense with a backward that scales the input's and W's gradients:
    a factor other than 1 is a wrong gradient, a dropped factor."""
    def backward(cache, g, W, b):
        dx, (dW, db) = dense.backward(cache, g, W, b)
        return dx_factor * dx, (dW_factor * dW, db)

    return Layer(dense.forward, backward)


@pytest.mark.parametrize("factors", [(0.5, 1.0), (1.0, 0.5)], ids=["input", "W"])
def test_grad_check_catches_a_dropped_factor(factors):
    rng = np.random.default_rng(17)
    params = ParamSet({
        "W": rng.standard_normal((4, 3)),
        "b": rng.standard_normal(4),
        "x": rng.standard_normal((2, 3)),
    })
    target = rng.standard_normal((2, 4))
    chain = [(scaled_dense(*factors), ("W", "b"))]
    assert grad_check(chain, params, params["x"], target) > 1e-2


def dense_row(dW_factors):
    """A suite maker: the dense row's point at each attempt, through a
    dense whose backward scales W's gradient by dW_factors[attempt]."""
    make_dense = next(make for name, make, _ in checks.CHECKS if name == "dense")

    def make(seed, attempt):
        _, params, x, target = make_dense(seed, attempt)
        return [(scaled_dense(1.0, dW_factors[attempt]), ("W", "b"))], params, x, target

    return make


def test_suite_resamples_a_failing_point(monkeypatch):
    # a failing point is resampled, up to 3 points in all; the best error
    # counts: W's gradient at half, then right; then at 1/2, 7/10, 1/5
    # (relative errors of about 0.5, 0.3, 0.8)
    flaky, broken = dense_row((0.5, 1.0, 1.0)), dense_row((0.5, 0.7, 0.2))
    monkeypatch.setattr(checks, "CHECKS", (("flaky", flaky, checks.LINEAR_TOL),
                                           ("broken", broken, checks.LINEAR_TOL)))
    first, second = run_gradcheck_suite()
    assert first.passed and first.resamples == 1
    assert first.worst_error == grad_check(*flaky(7, 1))
    errors = [grad_check(*broken(7, k)) for k in range(3)]
    assert not second.passed and second.resamples == 2
    assert second.worst_error == min(errors) == errors[1]


def test_grad_check_runs_one_backward(monkeypatch):
    # the finite-difference probes need the loss alone: one backward per
    # grad_check, for the analytic gradients, on every check of the suite
    calls = []
    monkeypatch.setattr("stockcast.nn.layers.backprop",
                        lambda *args: calls.append(1) or backprop(*args))
    for name, make, _ in checks.CHECKS:
        calls.clear()
        grad_check(*make(7, 0))
        assert len(calls) == 1, name


def test_full_suite_green():
    for result in run_gradcheck_suite():
        assert result.passed, f"{result.name}: {result.worst_error}"


# --- determinism and serialization -------------------------------------------

def test_forward_deterministic():
    rng = np.random.default_rng(9)
    W, b, x = rng.standard_normal((4, 4)), rng.standard_normal(4), rng.standard_normal((2, 4))
    assert np.array_equal(dense.forward(x, W, b)[0], dense.forward(x, W, b)[0])
