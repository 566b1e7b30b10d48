"""The gradient-check suite behind the `gradcheck` command and tests.

Every differentiable kernel plus all four architectures at surrogate
widths is compared against central finite differences; a kernel's
output enters the loss as mse against a random target.  Purely linear
paths must agree to 1e-6; relu/pool/gated paths to 1e-4, with kink
resampling (a finite-difference step that crosses a relu kink or a pool
argmax flip is a property of the probe point, not a wrong gradient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import build_surrogate
from .nn import autodiff as ad
from .nn.autodiff import Tensor, mse
from .nn.gradcheck import grad_check_resampling
from .nn.params import ParamSet

LINEAR_TOL = 1e-6
NONLINEAR_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    worst_error: float
    tol: float
    resamples: int = 0

    @property
    def passed(self) -> bool:
        return self.worst_error < self.tol


def _rng(seed):
    return np.random.default_rng(seed)


def _check_dense(seed):
    def make(attempt):
        rng = _rng((seed, attempt))
        params = ParamSet({
            "W": Tensor(rng.standard_normal((4, 3))),
            "b": Tensor(rng.standard_normal(4)),
            "x": Tensor(rng.standard_normal((2, 3))),
        })
        target = Tensor(rng.standard_normal((2, 4)))

        def f(p):
            return mse(ad.dense(p["x"], p["W"], p["b"]), target)

        return f, params

    return make


def _check_conv(seed):
    def make(attempt):
        rng = _rng((seed, attempt))
        params = ParamSet({
            "K": Tensor(rng.standard_normal((3, 2, 4))),
            "b": Tensor(rng.standard_normal(3)),
            "x": Tensor(rng.standard_normal((2, 2, 9))),
        })
        target = Tensor(rng.standard_normal((2, 3, 6)))

        def f(p):
            return mse(ad.conv1d_channels(p["x"], p["K"], p["b"]), target)

        return f, params

    return make


def _check_maxpool(seed):
    def make(attempt):
        rng = _rng((seed, attempt))
        # well-separated entries keep the argmax away from ties
        x = rng.permutation(np.linspace(-3.0, 3.0, 48)) + 0.01 * rng.standard_normal(48)
        params = ParamSet({"x": Tensor(x.reshape(2, 2, 12))})
        target = Tensor(rng.standard_normal((2, 2, 4)))

        def f(p):
            return mse(ad.maxpool1d_op(p["x"], 3), target)

        return f, params

    return make


def _check_recurrent(seq, gates, seed, batch=2, steps=3, n_in=2, n_hid=4):
    """A 3-step sequence op, every hidden state in the loss, input included."""
    def make(attempt):
        rng = _rng((seed, attempt))
        params = ParamSet({
            "W": Tensor(0.5 * rng.standard_normal((gates * n_hid, n_in))),
            "U": Tensor(0.5 * rng.standard_normal((gates * n_hid, n_hid))),
            "b": Tensor(0.5 * rng.standard_normal(gates * n_hid)),
            "x": Tensor(rng.standard_normal((batch, steps, n_in))),
        })
        target = Tensor(rng.standard_normal((batch, steps, n_hid)))

        def f(p):
            return mse(seq(p["x"], p["W"], p["U"], p["b"]), target)

        return f, params

    return make


def _check_mse(seed):
    def make(attempt):
        rng = _rng((seed, attempt))
        params = ParamSet({"pred": Tensor(rng.standard_normal(6)),
                           "target": Tensor(rng.standard_normal(6))})

        def f(p):
            return mse(p["pred"], p["target"])

        return f, params

    return make


def _check_architecture(kind, seed, w=7, h=2):
    def make(attempt):
        rng = _rng((seed, attempt))
        model = build_surrogate(kind, w, h, seed=seed + attempt)
        x = rng.uniform(0.1, 0.9, size=(2, w))
        y = rng.uniform(0.1, 0.9, size=(2, h))

        def f(p):
            return mse(model.forward(Tensor(x)), Tensor(y))

        return f, model.params

    return make


def run_gradcheck_suite(seed: int = 7, eps: float = 1e-5) -> list[CheckResult]:
    """Worst finite-difference error per layer kind and architecture."""
    checks = [
        ("dense", _check_dense(seed), LINEAR_TOL),
        ("conv1d", _check_conv(seed), LINEAR_TOL),
        ("maxpool", _check_maxpool(seed), NONLINEAR_TOL),
        ("gru_cell", _check_recurrent(ad.gru_seq, 3, seed), NONLINEAR_TOL),
        ("lstm_cell", _check_recurrent(ad.lstm_seq, 4, seed), NONLINEAR_TOL),
        ("mse", _check_mse(seed), LINEAR_TOL),
        ("arch_MLP", _check_architecture("MLP", seed), NONLINEAR_TOL),
        ("arch_CNN", _check_architecture("CNN", seed), NONLINEAR_TOL),
        ("arch_GRU", _check_architecture("GRU", seed), NONLINEAR_TOL),
        ("arch_LSTM", _check_architecture("LSTM", seed), NONLINEAR_TOL),
    ]
    results = []
    for name, make, tol in checks:
        err, resamples = grad_check_resampling(make, n_tries=3, eps=eps, tol=tol)
        results.append(CheckResult(name=name, worst_error=err, tol=tol,
                                   resamples=resamples))
    return results
