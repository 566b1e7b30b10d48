"""The finite-difference gradient check and the suite behind the
`gradcheck` command and tests.

`grad_check` checks a chain's gradients from `mse_loss`, the training
step, against central finite differences.  The suite runs it on every
layer kind plus all four architectures at surrogate widths: a layer's
output enters the loss as mse against a random target, and the `mse`
row checks the loss's own prediction gradient on an empty chain.
Purely linear paths must agree to 1e-6; relu/pool/gated paths to 1e-4,
with kink resampling (a finite-difference step that crosses a relu kink
or a pool argmax flip is a property of the probe point, not a wrong
gradient).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NonFiniteGradient
from .models import KINDS, build_surrogate
from .nn.layers import conv1d, dense, gru, lstm, maxpool, mse_loss
from .nn.params import ParamSet

LINEAR_TOL = 1e-6
NONLINEAR_TOL = 1e-4
_FLOOR = 1e-8


def grad_check(chain, params: ParamSet, x, target, eps: float = 1e-5) -> float:
    """Worst relative error between the gradients `mse_loss(chain, params,
    x, target)` returns and central differences of its loss, over every
    entry of `params` (x is checked when it is `params["x"]`).

    One backward gives the analytic gradients; each finite-difference
    probe runs the loss alone (grads=False).  Relative error uses the
    denominator max(|analytic|, |numeric|, 1e-8) per coordinate.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    _, grads = mse_loss(chain, params, x, target)
    worst = 0.0
    for name, p in params.items():
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
        ga = grads[name].reshape(-1)
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(mse_loss(chain, params, x, target, grads=False))
            flat[i] = orig - eps
            lo = float(mse_loss(chain, params, x, target, grads=False))
            flat[i] = orig
            num = (hi - lo) / (2.0 * eps)
            if not np.isfinite(num):
                raise NonFiniteGradient(f"non-finite finite difference in {name}")
            err = abs(ga[i] - num) / max(abs(ga[i]), abs(num), _FLOOR)
            worst = max(worst, err)
    return worst


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
    return chain, params, params["x"], rng.standard_normal(target)


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
    return [(maxpool(3), ())], params, params["x"], rng.standard_normal((2, 2, 4))


def _architecture(kind, seed, attempt, w=7, h=2):
    rng = np.random.default_rng((seed, attempt))
    model = build_surrogate(kind, w, h, seed=seed + attempt)
    x = rng.uniform(0.1, 0.9, size=(2, w))
    return model.chain, model.params, x, rng.uniform(0.1, 0.9, size=(2, h))


# (name, maker, tolerance); maker(seed, attempt) returns a fresh
# (chain, params, x, target) for grad_check
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
            err = min(err, grad_check(*make(seed, resamples), eps=eps))
            if err < tol:
                break
        results.append(CheckResult(name=name, worst_error=err, tol=tol,
                                   resamples=resamples))
    return results
