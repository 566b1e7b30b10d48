"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteGradient
from .params import ParamSet

_FLOOR = 1e-8


def grad_check(f, params: ParamSet, eps: float = 1e-5) -> float:
    """Worst relative error between analytic gradients and central differences.

    `f(params)` returns (loss, grads): a scalar and a gradient per
    parameter name; `f(params, grads=False)` returns the loss alone, with
    no backward, and the finite-difference probes call that.  Relative
    error uses the denominator max(|analytic|, |numeric|, 1e-8) per
    coordinate.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    _, grads = f(params)
    worst = 0.0
    for name, p in params.items():
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
        ga = grads[name].reshape(-1)
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(params, grads=False))
            flat[i] = orig - eps
            lo = float(f(params, grads=False))
            flat[i] = orig
            num = (hi - lo) / (2.0 * eps)
            if not np.isfinite(num):
                raise NonFiniteGradient(f"non-finite finite difference in {name}")
            err = abs(ga[i] - num) / max(abs(ga[i]), abs(num), _FLOOR)
            worst = max(worst, err)
    return worst
