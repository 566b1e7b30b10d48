"""Adam optimizer with bias correction."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeMismatch
from .params import ParamSet

# Elements per pass of the update: 256 KiB per float64 array, so the five
# arrays of a block (parameter, gradient, M, V and the one scratch array)
# stay in L2 across the update's operations.
_BLOCK = 32768


class Adam:
    """Bias-corrected Adam over a ParamSet, in Kingma & Ba's reordered form
    (Kingma & Ba, "Adam: A Method for Stochastic Optimization", ICLR 2015,
    section 2).

    The moments are kept scaled, M = m/(1-b1) and V = v/(1-b2), so
    `opt.m` and `opt.v` hold M and V:

        M = b1 M + g;  V = b2 V + g^2
        p -= s_t (M / (sqrt(V) + eps_t))

    with c1 = 1-b1^t, c2 = 1-b2^t, k_t = sqrt((1-b2)/c2),
    s_t = lr (1-b1) / (c1 k_t) and eps_t = eps / k_t.  It is the textbook
    update p -= lr (m/c1) / (sqrt(v/c2) + eps) with m = (1-b1) M and
    v = (1-b2) V substituted, whose denominator is k_t (sqrt(V) + eps_t),
    so the two agree up to floating-point rounding.
    """

    def __init__(self, params: ParamSet, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        # the scaled form divides by 1-beta2: beta2 = 1 would step by inf/nan
        for name, value in (("lr", lr), ("eps", eps)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"Adam {name} must be finite and > 0, got {value}")
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"Adam {name} must be in [0, 1), got {value}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # M and V over each parameter's flat (C-order) elements
        self.m = {k: np.zeros(p.size) for k, p in params.items()}
        self.v = {k: np.zeros(p.size) for k, p in params.items()}
        # one block-sized scratch array, shared by every parameter and step
        a = np.empty(_BLOCK)
        # each parameter's blocks, sliced once: (offset, then views of its
        # flat data, M, V and the scratch array over the block).  p is
        # C-contiguous (ParamSet checks it), so its flat reshape is a view
        # the update writes through
        self._blocks = {}
        for k, p in params.items():
            flat_p, m, v = p.reshape(-1), self.m[k], self.v[k]
            self._blocks[k] = blocks = []
            for lo in range(0, flat_p.size, _BLOCK):
                pb = flat_p[lo:lo + _BLOCK]
                blocks.append((lo, pb, m[lo:lo + _BLOCK], v[lo:lo + _BLOCK],
                               a[:pb.size]))

    def step(self, grads: dict[str, np.ndarray]):
        """One update in place from `grads`, one gradient per parameter
        name: the class formula's operations in its order, block by block
        over each parameter's flat view and written into the scratch
        array, so the result is bit-identical to evaluating the formula
        with temporaries."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        k_t = math.sqrt((1.0 - b2) / c2)
        s_t = self.lr * (1.0 - b1) / (c1 * k_t)
        eps_t = self.eps / k_t
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                raise ShapeMismatch(f"no gradient for parameter {name}")
            if g.shape != p.shape:
                raise ShapeMismatch(f"gradient shape for {name}: {g.shape} vs {p.shape}")
            flat_g = g.reshape(-1)
            blocks = self._blocks[name]
            for lo, pb, m, v, a in blocks:
                # a parameter of one block reads its whole gradient
                gb = flat_g[lo:lo + _BLOCK] if len(blocks) > 1 else flat_g
                m *= b1
                m += gb
                v *= b2
                v += np.multiply(gb, gb, out=a)
                np.sqrt(v, out=a)
                a += eps_t
                np.divide(m, a, out=a)
                a *= s_t
                pb -= a
