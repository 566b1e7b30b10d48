import numpy as np
import pytest

from stockcast.checks import run_gradcheck_suite
from stockcast.errors import NonFiniteGradient, ShapeMismatch
from stockcast.nn import autodiff as ad
from stockcast.nn.autodiff import Tensor
from stockcast.nn.gradcheck import grad_check
from stockcast.nn.layers import (
    conv1d,
    dense,
    gru_cell,
    gru_param_shapes,
    lstm_cell,
    lstm_param_shapes,
    maxpool1d,
    mse,
)
from stockcast.nn.optim import Adam
from stockcast.nn.params import ParamSet


def tensors_from(rng, shapes, scale=1.0):
    return {k: Tensor(scale * rng.standard_normal(v)) for k, v in shapes.items()}


# --- dense -------------------------------------------------------------------

def test_dense_identity():
    y = dense(Tensor([3.0, 4.0]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    assert np.allclose(y.data, [3, 4])


def test_dense_affine():
    y = dense(Tensor([3.0, 4.0]), Tensor([[1.0, 2.0]]), Tensor([1.0]))
    assert np.allclose(y.data, [12.0])


def test_dense_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dense(Tensor([1.0, 2.0, 3.0]), Tensor(np.eye(2)), Tensor(np.zeros(2)))


def test_dense_gradcheck_random_4x3():
    rng = np.random.default_rng(0)
    for _ in range(3):
        params = ParamSet({
            "W": Tensor(rng.standard_normal((4, 3))),
            "b": Tensor(rng.standard_normal(4)),
            "x": Tensor(rng.standard_normal(3)),
        })
        err = grad_check(lambda p: ad.tsum(dense(p["x"], p["W"], p["b"]) ** 2), params)
        assert err < 1e-6


# --- conv / pool -------------------------------------------------------------

def test_conv1d_identity_kernel():
    x = np.array([1.0, 3.0, 6.0, 2.0])
    y = conv1d(Tensor(x), Tensor([[1.0]]), Tensor([0.0]))
    assert np.allclose(y.data, x[None, :])


def test_conv1d_first_difference():
    y = conv1d(Tensor([1.0, 3.0, 6.0]), Tensor([[1.0, -1.0]]), Tensor([0.0]))
    assert np.allclose(y.data, [[-2.0, -3.0]])


def test_conv1d_gradcheck():
    rng = np.random.default_rng(1)
    params = ParamSet({
        "K": Tensor(rng.standard_normal((3, 3))),
        "b": Tensor(rng.standard_normal(3)),
        "x": Tensor(rng.standard_normal(8)),
    })
    err = grad_check(lambda p: ad.tsum(conv1d(p["x"], p["K"], p["b"]) ** 2), params)
    assert err < 1e-6


def test_maxpool_basic():
    y = maxpool1d(Tensor([1.0, 5.0, 2.0, 3.0]), 2)
    assert np.allclose(y.data, [5.0, 3.0])


def test_maxpool_pool1_identity():
    x = np.array([4.0, 1.0, 2.0])
    assert np.allclose(maxpool1d(Tensor(x), 1).data, x)


def test_maxpool_drops_remainder():
    assert np.allclose(maxpool1d(Tensor([1.0, 2.0, 9.0]), 2).data, [2.0])


def test_maxpool_tie_breaks_first():
    x = Tensor([2.0, 2.0])
    y = maxpool1d(x, 2)
    ad.tsum(y).backward()
    assert np.allclose(x.grad, [1.0, 0.0])


def test_maxpool_gradcheck_non_tied():
    x = np.array([0.3, -1.2, 2.0, 0.7, -0.5, 1.1])
    params = ParamSet({"x": Tensor(x)})
    err = grad_check(lambda p: ad.tsum(maxpool1d(p["x"], 2) ** 2), params)
    assert err < 1e-6


# --- activations -------------------------------------------------------------

def test_relu():
    assert np.allclose(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0, 0, 2])


def test_relu_subgradient_zero_at_zero():
    x = Tensor([0.0])
    ad.tsum(ad.relu(x)).backward()
    assert x.grad[0] == 0.0


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)


def test_tanh_act():
    assert np.allclose(ad.tanh(Tensor([0.0, 1.0])).data, np.tanh([0.0, 1.0]))


# --- recurrent cells ---------------------------------------------------------

def zero_gru_params(n_in=2, n_hid=3):
    return {k: Tensor(np.zeros(v)) for k, v in gru_param_shapes(n_in, n_hid).items()}


def zero_lstm_params(n_in=2, n_hid=3):
    return {k: Tensor(np.zeros(v)) for k, v in lstm_param_shapes(n_in, n_hid).items()}


def test_gru_zero_params_zero_state():
    h = gru_cell(Tensor([1.0, -2.0]), Tensor(np.zeros(3)), zero_gru_params())
    assert np.allclose(h.data, 0.0)


def test_gru_update_gate_saturation():
    params = zero_gru_params()
    params["b_z"] = Tensor(np.full(3, 30.0))
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal(2))
    h_prev = Tensor(rng.standard_normal(3))
    # z ~= 1 so h_t ~= h_tilde; with zero W_h/U_h/b_h, h_tilde = 0
    h = gru_cell(x, h_prev, params)
    assert np.max(np.abs(h.data)) < 1e-9


def test_gru_unrolled_gradcheck():
    rng = np.random.default_rng(3)
    params = ParamSet(tensors_from(rng, gru_param_shapes(2, 4), scale=0.5))
    xs = rng.standard_normal((3, 2))

    def f(p):
        h = Tensor(np.zeros(4))
        for t in range(3):
            h = gru_cell(Tensor(xs[t]), h, p)
        return ad.tsum(h ** 2)

    assert grad_check(f, params) < 1e-5


def test_gru_hidden_state_bounded():
    rng = np.random.default_rng(4)
    params = {k: Tensor(2.0 * rng.standard_normal(v))
              for k, v in gru_param_shapes(1, 5).items()}
    h = Tensor(np.zeros(5))
    for t in range(50):
        h = gru_cell(Tensor([float(np.sin(t))]), h, params)
        assert np.max(np.abs(h.data)) <= 1.0 + 1e-12


def test_lstm_zero_params():
    h, c = lstm_cell(Tensor([1.0, 2.0]), Tensor(np.zeros(3)), Tensor(np.zeros(3)),
                     zero_lstm_params())
    assert np.allclose(h.data, 0.0)
    assert np.allclose(c.data, 0.0)


def test_lstm_pure_memory_saturation():
    params = zero_lstm_params()
    params["b_f"] = Tensor(np.full(3, 30.0))
    params["b_i"] = Tensor(np.full(3, -30.0))
    rng = np.random.default_rng(5)
    c_prev = Tensor(rng.standard_normal(3))
    _, c = lstm_cell(Tensor(rng.standard_normal(2)), Tensor(rng.standard_normal(3)),
                     c_prev, params)
    assert np.max(np.abs(c.data - c_prev.data)) < 1e-9


def test_lstm_unrolled_gradcheck():
    rng = np.random.default_rng(6)
    params = ParamSet(tensors_from(rng, lstm_param_shapes(2, 4), scale=0.5))
    xs = rng.standard_normal((3, 2))

    def f(p):
        h = Tensor(np.zeros(4))
        c = Tensor(np.zeros(4))
        for t in range(3):
            h, c = lstm_cell(Tensor(xs[t]), h, c, p)
        return ad.tsum(h ** 2)

    assert grad_check(f, params) < 1e-5


def test_lstm_hidden_state_bounded():
    rng = np.random.default_rng(7)
    params = {k: Tensor(2.0 * rng.standard_normal(v))
              for k, v in lstm_param_shapes(1, 5).items()}
    h, c = Tensor(np.zeros(5)), Tensor(np.zeros(5))
    for t in range(50):
        h, c = lstm_cell(Tensor([float(np.cos(t))]), h, c, params)
        assert np.max(np.abs(h.data)) <= 1.0 + 1e-12


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
    target = rng.standard_normal(5)
    pred = Tensor(rng.standard_normal(5))
    loss = mse(pred, Tensor(target))
    loss.backward()
    assert np.allclose(pred.grad, 2.0 * (pred.data - target) / 5, atol=1e-12)
    params = ParamSet({"pred": Tensor(pred.data.copy())})
    assert grad_check(lambda p: mse(p["pred"], Tensor(target)), params) < 1e-8


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


# --- grad_check behavior ------------------------------------------------------

def test_grad_check_exact_quadratic():
    params = ParamSet({"w": Tensor([1.0, -2.0, 3.0])})
    assert grad_check(lambda p: ad.tsum(p["w"] ** 2), params) < 1e-9


def test_grad_check_eps_range():
    params = ParamSet({"w": Tensor([1.0])})
    with pytest.raises(ValueError):
        grad_check(lambda p: ad.tsum(p["w"] ** 2), params, eps=1e-2)


def test_grad_check_non_finite():
    params = ParamSet({"w": Tensor([0.0])})

    def f(p):
        return ad.tsum(p["w"] ** -1)

    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteGradient):
            grad_check(f, params)


def test_full_suite_green():
    for result in run_gradcheck_suite():
        assert result.passed, f"{result.name}: {result.worst_error}"


# --- determinism and serialization -------------------------------------------

def test_forward_deterministic():
    rng = np.random.default_rng(9)
    W, b, x = rng.standard_normal((4, 4)), rng.standard_normal(4), rng.standard_normal(4)
    a = dense(Tensor(x), Tensor(W), Tensor(b)).data
    b2 = dense(Tensor(x), Tensor(W), Tensor(b)).data
    assert np.array_equal(a, b2)
