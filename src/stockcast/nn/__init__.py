"""Reverse-mode differentiable kernels for the forecasting models."""

from .autodiff import Tensor, concat, reshape, tmean, tsum
from .gradcheck import grad_check, grad_check_resampling
from .layers import (
    conv1d,
    dense,
    gru_cell,
    gru_param_shapes,
    lstm_cell,
    lstm_param_shapes,
    maxpool1d,
    mse,
)
from .optim import Adam
from .params import ParamSet

__all__ = [
    "Adam",
    "ParamSet",
    "Tensor",
    "concat",
    "conv1d",
    "dense",
    "grad_check",
    "grad_check_resampling",
    "gru_cell",
    "gru_param_shapes",
    "lstm_cell",
    "lstm_param_shapes",
    "maxpool1d",
    "mse",
    "reshape",
    "tmean",
    "tsum",
]
