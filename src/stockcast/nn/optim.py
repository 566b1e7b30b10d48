"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from .params import ParamSet


class Adam:
    """Standard bias-corrected Adam over a ParamSet.

    update: m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2
            p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """

    def __init__(self, params: ParamSet, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        # two scratch arrays per parameter, reused by every step
        self._tmp = {k: (np.empty_like(p.data), np.empty_like(p.data))
                     for k, p in params.items()}

    def step(self):
        """One update in place: the class formula's operations in its
        order, written into two scratch arrays per parameter, so the result
        is bit-identical to evaluating the formula with temporaries."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"gradient shape for {name}: {g.shape} vs {p.data.shape}")
            m = self.m[name]
            v = self.v[name]
            a, d = self._tmp[name]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)         # m_hat
            a *= self.lr
            np.divide(v, c2, out=d)         # v_hat
            np.sqrt(d, out=d)
            d += self.eps
            a /= d
            p.data -= a

    def zero_grad(self):
        self.params.zero_grad()
