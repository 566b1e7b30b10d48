"""Differentiable layers: dense, 1-D conv, max-pool, MSE.

All layers accept either a single sample or a leading batch axis.  The
recurrent layers are the whole-sequence ops `autodiff.gru_seq` and
`autodiff.lstm_seq`.
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


def mse(pred, target) -> Tensor:
    """Mean squared error over all elements."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ShapeMismatch(f"mse shapes {pred.data.shape} vs {target.data.shape}")
    return ad.tmean((pred - target) ** 2)
