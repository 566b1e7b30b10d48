"""Analytic gradients versus central finite differences.

First a tiny worked example on a dense layer, then the full check
suite over every layer kind and all four architectures.
"""

import numpy as np

from stockcast.checks import grad_check, run_gradcheck_suite
from stockcast.nn.layers import dense
from stockcast.nn.params import ParamSet

rng = np.random.default_rng(0)
params = ParamSet({
    "W": rng.standard_normal((4, 3)),
    "b": rng.standard_normal(4),
    "x": rng.standard_normal((2, 3)),
})
target = rng.standard_normal((2, 4))

# grad_check takes the loss and its gradients from `mse_loss`, the step
# training runs on every batch: each layer's forward keeps a cache, and
# its backward turns dloss/dy into the input's and parameters'
# gradients.  The finite-difference probes need the loss alone.  The
# input is the "x" entry of params, so its gradient is checked too.
err = grad_check([(dense, ("W", "b"))], params, params["x"], target)
print(f"dense layer, mse head: worst relative error {err:.3e}")

print("\nfull suite (every layer kind + all four architectures):")
for r in run_gradcheck_suite(seed=7):
    note = f", {r.resamples} kink resample(s)" if r.resamples else ""
    print(f"  {r.name:12s} {r.worst_error:.3e}  (tol {r.tol:.0e}{note})  "
          f"{'ok' if r.passed else 'FAIL'}")
