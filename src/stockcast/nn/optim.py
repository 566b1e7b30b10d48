"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from .params import ParamSet

# Elements per pass of the update: 256 KiB per float64 array, so a block of
# a parameter, its gradient, m, v and the two scratch arrays stay in L2
# across the update's operations.
_BLOCK = 32768


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
        # m and v over each parameter's flat (C-order) elements
        self.m = {k: np.zeros(p.size) for k, p in params.items()}
        self.v = {k: np.zeros(p.size) for k, p in params.items()}
        # two block-sized scratch arrays, shared by every parameter and step
        a, d = np.empty(_BLOCK), np.empty(_BLOCK)
        # each parameter's blocks, sliced once: (offset, then views of its
        # flat data, m, v and the scratch arrays over the block).  p is
        # C-contiguous (ParamSet checks it), so its flat reshape is a view
        # the update writes through
        self._blocks = {}
        for k, p in params.items():
            flat_p, m, v = p.reshape(-1), self.m[k], self.v[k]
            self._blocks[k] = blocks = []
            for lo in range(0, flat_p.size, _BLOCK):
                pb = flat_p[lo:lo + _BLOCK]
                blocks.append((lo, pb, m[lo:lo + _BLOCK], v[lo:lo + _BLOCK],
                               a[:pb.size], d[:pb.size]))

    def step(self, grads: dict[str, np.ndarray]):
        """One update in place from `grads`, one gradient per parameter
        name: the class formula's operations in its order, block by block
        over each parameter's flat view and written into the scratch
        arrays, so the result is bit-identical to evaluating the formula
        with temporaries."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                raise ShapeMismatch(f"no gradient for parameter {name}")
            if g.shape != p.shape:
                raise ShapeMismatch(f"gradient shape for {name}: {g.shape} vs {p.shape}")
            flat_g = g.reshape(-1)
            blocks = self._blocks[name]
            for lo, pb, m, v, a, d in blocks:
                # a parameter of one block reads its whole gradient
                gb = flat_g[lo:lo + _BLOCK] if len(blocks) > 1 else flat_g
                m *= self.beta1
                m += np.multiply(1.0 - self.beta1, gb, out=a)
                v *= self.beta2
                np.multiply(1.0 - self.beta2, gb, out=a)
                v += np.multiply(a, gb, out=a)
                np.divide(m, c1, out=a)         # m_hat
                a *= self.lr
                np.divide(v, c2, out=d)         # v_hat
                np.sqrt(d, out=d)
                d += self.eps
                a /= d
                pb -= a
