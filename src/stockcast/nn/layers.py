"""Differentiable layers: dense, 1-D conv, max-pool, GRU/LSTM cells, MSE.

All layers accept either a single sample or a leading batch axis.  The
recurrent cells follow the canonical gate formulations with the reset
gate applied before the recurrent matrix (original-report GRU variant).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from . import autodiff as ad
from .autodiff import Tensor


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def affine(x: Tensor, W: Tensor) -> Tensor:
    """x @ W.T for x of shape [in] or [batch, in]."""
    return ad.matmul(x, ad.transpose(W))


def dense(x, W: Tensor, b: Tensor) -> Tensor:
    """y = W x + b with W: [out, in], b: [out]."""
    x = _as_tensor(x)
    if W.data.ndim != 2 or b.data.shape != (W.data.shape[0],):
        raise ShapeMismatch(f"dense W {W.data.shape} / b {b.data.shape}")
    if x.data.shape[-1] != W.data.shape[1]:
        raise ShapeMismatch(f"dense input {x.data.shape} vs W {W.data.shape}")
    return affine(x, W) + b


def conv1d(x, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid-mode stride-1 convolution of a single-channel sequence.

    x: [len] or [batch, len]; kernels: [n_k, k_size]; bias: [n_k].
    Output per filter f:  out[f, i] = sum_d kernels[f, d] * x[i + d] + bias[f].
    """
    x = _as_tensor(x)
    if kernels.data.ndim != 2:
        raise ShapeMismatch("conv1d kernels must be [n_k, k_size]")
    batched = x.data.ndim == 2
    x3 = ad.reshape(x, (x.data.shape[0], 1, x.data.shape[1])) if batched \
        else ad.reshape(x, (1, 1, x.data.shape[0]))
    k3 = ad.reshape(kernels, (kernels.data.shape[0], 1, kernels.data.shape[1]))
    out = ad.conv1d_channels(x3, k3, bias)
    if not batched:
        out = ad.reshape(out, out.data.shape[1:])
    return out


def maxpool1d(x, pool: int) -> Tensor:
    return ad.maxpool1d_op(_as_tensor(x), pool)


def _gate(x, h, W, U, b):
    return dense(x, W, b) + affine(h, U)


def gru_cell(x_t, h_prev, params) -> Tensor:
    """One GRU step.

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * h~
    """
    x_t, h_prev = _as_tensor(x_t), _as_tensor(h_prev)
    z = ad.sigmoid(_gate(x_t, h_prev, params["W_z"], params["U_z"], params["b_z"]))
    r = ad.sigmoid(_gate(x_t, h_prev, params["W_r"], params["U_r"], params["b_r"]))
    h_tilde = ad.tanh(dense(x_t, params["W_h"], params["b_h"]) + affine(r * h_prev, params["U_h"]))
    return h_prev + z * (h_tilde - h_prev)


def lstm_cell(x_t, h_prev, c_prev, params) -> tuple[Tensor, Tensor]:
    """One LSTM step: returns (h_t, c_t).

    i, f, o = sigmoid gates; g = tanh(W_g x + U_g h + b_g)
    c' = f * c + i * g;  h' = o * tanh(c')
    """
    x_t, h_prev, c_prev = _as_tensor(x_t), _as_tensor(h_prev), _as_tensor(c_prev)
    i = ad.sigmoid(_gate(x_t, h_prev, params["W_i"], params["U_i"], params["b_i"]))
    f = ad.sigmoid(_gate(x_t, h_prev, params["W_f"], params["U_f"], params["b_f"]))
    o = ad.sigmoid(_gate(x_t, h_prev, params["W_o"], params["U_o"], params["b_o"]))
    g = ad.tanh(_gate(x_t, h_prev, params["W_g"], params["U_g"], params["b_g"]))
    c_t = f * c_prev + i * g
    h_t = o * ad.tanh(c_t)
    return h_t, c_t


def mse(pred, target) -> Tensor:
    """Mean squared error over all elements."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ShapeMismatch(f"mse shapes {pred.data.shape} vs {target.data.shape}")
    return ad.tmean((pred - target) ** 2)


# gate parameter name templates, used by the model builders
GRU_GATES = ("z", "r", "h")
LSTM_GATES = ("i", "f", "o", "g")


def gru_param_shapes(n_in: int, n_hid: int) -> dict[str, tuple]:
    shapes = {}
    for g in GRU_GATES:
        shapes[f"W_{g}"] = (n_hid, n_in)
        shapes[f"U_{g}"] = (n_hid, n_hid)
        shapes[f"b_{g}"] = (n_hid,)
    return shapes


def lstm_param_shapes(n_in: int, n_hid: int) -> dict[str, tuple]:
    shapes = {}
    for g in LSTM_GATES:
        shapes[f"W_{g}"] = (n_hid, n_in)
        shapes[f"U_{g}"] = (n_hid, n_hid)
        shapes[f"b_{g}"] = (n_hid,)
    return shapes
