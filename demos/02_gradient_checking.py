"""Reverse-mode gradients versus central finite differences.

First a tiny worked example on a dense layer, then the full check
suite over every layer kind and all four architectures.
"""

import numpy as np

from stockcast.checks import run_gradcheck_suite
from stockcast.nn import autodiff as ad
from stockcast.nn.autodiff import Tensor
from stockcast.nn.gradcheck import grad_check
from stockcast.nn.params import ParamSet

rng = np.random.default_rng(0)
params = ParamSet({
    "W": Tensor(rng.standard_normal((4, 3))),
    "b": Tensor(rng.standard_normal(4)),
    "x": Tensor(rng.standard_normal((2, 3))),
})
target = Tensor(rng.standard_normal((2, 4)))


def f(p):
    return ad.mse(ad.dense(p["x"], p["W"], p["b"]), target)


err = grad_check(f, params)
print(f"dense layer, mse head: worst relative error {err:.3e}")

print("\nfull suite (every layer kind + all four architectures):")
for r in run_gradcheck_suite(seed=7):
    note = f", {r.resamples} kink resample(s)" if r.resamples else ""
    print(f"  {r.name:12s} {r.worst_error:.3e}  (tol {r.tol:.0e}{note})  "
          f"{'ok' if r.passed else 'FAIL'}")
