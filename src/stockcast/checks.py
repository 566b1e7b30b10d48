"""The gradient-check suite behind the `gradcheck` command and tests.

Every layer kind plus all four architectures at surrogate widths is
checked against central finite differences through `mse_loss`, the
training step: a layer's output enters the loss as mse against a random
target, and the `mse` row checks the loss's own prediction gradient on
an empty chain.  Purely linear paths must agree to 1e-6; relu/pool/gated
paths to 1e-4, with kink resampling (a finite-difference step that
crosses a relu kink or a pool argmax flip is a property of the probe
point, not a wrong gradient).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .models import KINDS, build_surrogate
from .nn.gradcheck import grad_check
from .nn.layers import conv1d, dense, gru, lstm, maxpool, mse_loss
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


def _normal(chain, target, args, seed, attempt):
    """A layer check at standard-normal arguments.

    `args` maps the input "x" and each parameter of `chain` to (shape,
    scale); they are drawn in order, then a target of shape `target`, and
    the loss is mse(chain(x), target).
    """
    rng = np.random.default_rng((seed, attempt))
    params = ParamSet({name: scale * rng.standard_normal(shape)
                       for name, (shape, scale) in args.items()})
    target = rng.standard_normal(target)
    return (lambda p, grads=True: mse_loss(chain, p, p["x"], target, grads)), params


def _recurrent(seq, gates):
    """A sequence layer over time-major x of 3 steps, batch 2 and 2 inputs,
    with 4 hidden units, every hidden state in the loss, input included."""
    return partial(_normal, [(seq, ("W", "U", "b"))], (3, 2, 4), {
        "W": ((gates * 4, 2), 0.5), "U": ((gates * 4, 4), 0.5), "b": ((gates * 4,), 0.5),
        "x": ((3, 2, 2), 1)})


def _maxpool(seed, attempt):
    rng = np.random.default_rng((seed, attempt))
    # well-separated entries keep the argmax away from ties
    x = rng.permutation(np.linspace(-3.0, 3.0, 48)) + 0.01 * rng.standard_normal(48)
    params = ParamSet({"x": x.reshape(2, 2, 12)})
    target = rng.standard_normal((2, 2, 4))
    return (lambda p, grads=True: mse_loss([(maxpool(3), ())], p, p["x"], target, grads)), params


def _architecture(kind, seed, attempt, w=7, h=2):
    rng = np.random.default_rng((seed, attempt))
    model = build_surrogate(kind, w, h, seed=seed + attempt)
    x = rng.uniform(0.1, 0.9, size=(2, w))
    y = rng.uniform(0.1, 0.9, size=(2, h))
    return (lambda p, grads=True: mse_loss(model.chain, p, x, y, grads)), model.params


# (name, maker, tolerance); maker(seed, attempt) returns a fresh (f, params)
CHECKS = (
    ("dense", partial(_normal, [(dense, ("W", "b"))], (2, 4), {
        "W": ((4, 3), 1), "b": ((4,), 1), "x": ((2, 3), 1)}), LINEAR_TOL),
    ("conv1d", partial(_normal, [(conv1d, ("kernels", "bias"))], (2, 3, 6), {
        "kernels": ((3, 2, 4), 1), "bias": ((3,), 1), "x": ((2, 2, 9), 1)}), LINEAR_TOL),
    ("maxpool", _maxpool, NONLINEAR_TOL),
    ("gru_cell", _recurrent(gru, 3), NONLINEAR_TOL),
    ("lstm_cell", _recurrent(lstm, 4), NONLINEAR_TOL),
    ("mse", partial(_normal, [], (6,), {"x": ((6,), 1)}), LINEAR_TOL),
    *((f"arch_{kind}", partial(_architecture, kind), NONLINEAR_TOL) for kind in KINDS),
)


def run_gradcheck_suite(seed: int = 7, eps: float = 1e-5) -> list[CheckResult]:
    """Worst finite-difference error per layer kind and architecture."""
    results = []
    for name, make, tol in CHECKS:
        # a failing probe point is resampled, up to 3 points in all; the
        # best error counts
        err = np.inf
        for resamples in range(3):
            err = min(err, grad_check(*make(seed, resamples), eps))
            if err < tol:
                break
        results.append(CheckResult(name=name, worst_error=err, tol=tol,
                                   resamples=resamples))
    return results
