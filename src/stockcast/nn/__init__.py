"""Reverse-mode differentiable kernels for the forecasting models."""

from .autodiff import Tensor, concat, gru_seq, lstm_seq, reshape, tmean, tsum
from .gradcheck import grad_check, grad_check_resampling
from .layers import conv1d, dense, maxpool1d, mse
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
    "gru_seq",
    "lstm_seq",
    "maxpool1d",
    "mse",
    "reshape",
    "tmean",
    "tsum",
]
