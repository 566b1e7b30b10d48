"""Reverse-mode differentiable kernels for the forecasting models."""

from .autodiff import (
    Tensor,
    conv1d_channels,
    dense,
    gru_seq,
    lstm_seq,
    maxpool1d_op,
    mse,
    relu,
    reshape,
)
from .gradcheck import grad_check
from .optim import Adam
from .params import ParamSet

__all__ = [
    "Adam",
    "ParamSet",
    "Tensor",
    "conv1d_channels",
    "dense",
    "grad_check",
    "gru_seq",
    "lstm_seq",
    "maxpool1d_op",
    "mse",
    "relu",
    "reshape",
]
