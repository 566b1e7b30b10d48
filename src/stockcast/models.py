"""Factories for the four forecasting architectures (MLP, CNN, GRU, LSTM).

Each builder takes the input window size w and the output arity h.  The
MLP/CNN keep relu on the output layer (normalized targets live in
[0,1], so clipping negatives is benign); the recurrent models use a
linear output head with relu on the projection between the two stacked
recurrent layers.  All weights draw from a seeded, per-layer-split PRNG
so two builds with the same seed are parameter-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import ArityMismatch, ShapeMismatch, WindowTooSmall
from .nn.layers import (
    channels,
    check_state,
    conv1d,
    dense,
    gru,
    last,
    lstm,
    maxpool,
    relu,
    run,
    time_major,
)
from .nn.params import ParamSet

MLP_HIDDEN = (16, 16)
CNN_FILTERS = (32, 32)
CNN_POOL = 2
CNN_DENSE = 32
CNN_KERNEL = 3
RNN_HIDDEN = (256, 128)

# Evaluation batches are padded with zero rows to a multiple of this.  BLAS
# rounds a matmul row by the kernel its batch's row count selects; padded,
# a row of any of the four models gives the same bits in any batch of up to
# 32 rows (the recurrent ones in larger batches too) under OpenBLAS 0.3.31's
# SkylakeX, Haswell and Sandybridge kernels.
PAD_ROWS = 16


def _pad_rows(a: np.ndarray) -> np.ndarray:
    """a [n, ...] with zero rows appended up to a multiple of PAD_ROWS."""
    pad = -len(a) % PAD_ROWS
    return np.concatenate([a, np.zeros((pad, *a.shape[1:]))]) if pad else a


class Model:
    """A map from a length-w window to h outputs: a fixed chain of
    `(layer, parameter names)` steps over the parameters.

    Training runs `nn.layers.mse_loss` on the chain and the parameters,
    on a batch as given.  `predict`, and `__call__` through it, evaluate
    the model: they pad their batch to a multiple of PAD_ROWS rows and
    keep no caches.
    """

    def __init__(self, kind: str, w: int, h: int, params: ParamSet, chain):
        self.kind = kind
        self.w = w
        self.h = h
        self.params = params
        self.chain = chain
        # GRU, LSTM: (name, n) of each state array, in chain order, that
        # `predict` runs T >= 1 steps from; a recurrent layer's U is [gates*n, n]
        self.state_widths = [(name, params[keys[1]].shape[1])
                             for layer, keys in chain for name in layer.state]

    def check_window(self, shape):
        """Raise ArityMismatch unless `shape` is that of windows [batch, w]."""
        if len(shape) != 2 or shape[1] != self.w:
            raise ArityMismatch(f"windows of shape {shape}, expected [batch, {self.w}]")

    def predict(self, x, init=()):
        """The evaluation forward of every kind: (y [batch, h], states)
        from x [batch, T].  An MLP or CNN reads T = w; its states are [].

        A GRU or LSTM runs any T >= 1 steps from the initial states
        `init` (empty: zero): the state arrays of its recurrent layers in
        chain order, [h0, h1] for a GRU and [h0, c0, h1, c1] for an LSTM,
        each [batch, n].  states holds the per-step states in that order,
        each [T, batch, n].
        """
        x = np.asarray(x, dtype=np.float64)
        if init and len(init) != len(self.state_widths):
            raise ShapeMismatch(f"{len(init)} initial state arrays, "
                                f"expected {len(self.state_widths)}")
        for (name, n), s in zip(self.state_widths, init):
            check_state(name, s, len(x), n)
        y, states = run(self.chain, self.params, _pad_rows(x), [_pad_rows(s) for s in init])
        return y[:len(x)], [s[:, :len(x)] for s in states]

    def __call__(self, windows) -> np.ndarray:
        """Numpy-in, numpy-out prediction: windows [N, w] -> [N, h]."""
        self.check_window(np.shape(windows))
        return self.predict(windows)[0]

    def n_params(self) -> int:
        return sum(a.size for _, a in self.params.items())


# --- seeded initialization ---------------------------------------------------

def _layer_rngs(seed: int, n: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _xavier_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _init_gated(rng, gates: int, n_in: int, n_hid: int):
    """Fused W [gates*n, n_in], U [gates*n, n] and zero b [gates*n].

    Each gate's W block, then its U block, is drawn in gate order, so the
    weights equal those of separately drawn per-gate matrices.
    """
    W, U = [], []
    for _ in range(gates):
        W.append(_xavier_uniform(rng, (n_hid, n_in), n_in, n_hid))
        U.append(_xavier_uniform(rng, (n_hid, n_hid), n_hid, n_hid))
    return np.concatenate(W), np.concatenate(U), np.zeros(gates * n_hid)


# --- MLP ----------------------------------------------------------------------

def build_mlp(w: int, h: int, seed: int = 0, hidden=MLP_HIDDEN) -> Model:
    """dense(w->16) relu, dense(16->16) relu, dense(16->h) relu."""
    sizes = [w, *hidden, h]
    n_layers = len(sizes) - 1
    rngs = _layer_rngs(seed, n_layers)
    arrays, chain = {}, []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        # the relu head starts near mid-range (small weights, bias 0.5):
        # a head that is negative for every sample gets no gradient and
        # never recovers
        head = i == n_layers - 1
        w_scale = 0.1 if head else 1.0
        arrays[f"l{i}.W"] = w_scale * _he_uniform(rngs[i], (n_out, n_in), n_in)
        arrays[f"l{i}.b"] = np.full(n_out, 0.5 if head else 0.0)
        chain += [(dense, (f"l{i}.W", f"l{i}.b")), (relu, ())]
    return Model("MLP", w, h, ParamSet(arrays), chain)


# --- CNN ----------------------------------------------------------------------

def cnn_kernel(w: int) -> int:
    """The CNN's kernel at window w: CNN_KERNEL, shrunk (for the small
    single-step windows) to the largest kernel whose two conv layers and
    pool still produce a non-empty output.  Raises WindowTooSmall when
    even a kernel of 1 does not."""
    kernel = min(CNN_KERNEL, (w - CNN_POOL) // 2 + 1)
    if kernel < 1:
        raise WindowTooSmall(f"window {w} too small for kernel 1 + pool {CNN_POOL}")
    return kernel


def build_cnn(w: int, h: int, seed: int = 0, filters=CNN_FILTERS,
              dense_size: int = CNN_DENSE) -> Model:
    """conv(32) relu, conv(32) relu, maxpool(2), dense(->32) relu, dense(32->h) relu,
    with the kernel of `cnn_kernel(w)`."""
    kernel = cnn_kernel(w)
    f1, f2 = filters
    flat = f2 * ((w - 2 * (kernel - 1)) // CNN_POOL)  # two convs, then the pool
    rngs = _layer_rngs(seed, 4)
    arrays = {
        "conv0.K": _he_uniform(rngs[0], (f1, 1, kernel), 1 * kernel),
        "conv0.b": np.zeros(f1),
        "conv1.K": _he_uniform(rngs[1], (f2, f1, kernel), f1 * kernel),
        "conv1.b": np.zeros(f2),
        "fc0.W": _he_uniform(rngs[2], (dense_size, flat), flat),
        "fc0.b": np.zeros(dense_size),
        # relu output head starts near mid-range, same rationale as the MLP
        "fc1.W": 0.1 * _he_uniform(rngs[3], (h, dense_size), dense_size),
        "fc1.b": np.full(h, 0.5),
    }
    chain = [(channels, ()),
             (conv1d, ("conv0.K", "conv0.b")), (relu, ()),
             (conv1d, ("conv1.K", "conv1.b")), (relu, ()),
             (maxpool(CNN_POOL), ()),
             (dense, ("fc0.W", "fc0.b")), (relu, ()),
             (dense, ("fc1.W", "fc1.b")), (relu, ())]
    return Model("CNN", w, h, ParamSet(arrays), chain)


# --- recurrent ----------------------------------------------------------------

def _build_recurrent(kind: str, w: int, h: int, seed: int, hidden) -> Model:
    seq, gates = (gru, 3) if kind == "GRU" else (lstm, 4)
    n1, n2 = hidden
    rngs = _layer_rngs(seed, 3)
    arrays = {}
    for layer, (n_in, n_hid) in enumerate(((1, n1), (n1, n2))):
        W, U, b = _init_gated(rngs[layer], gates, n_in, n_hid)
        arrays.update({f"r{layer}.W": W, f"r{layer}.U": U, f"r{layer}.b": b})
    # linear output head
    arrays["out.W"] = _xavier_uniform(rngs[2], (h, n2), n2, h)
    arrays["out.b"] = np.zeros(h)
    chain = [(time_major, ()),
             (seq, ("r0.W", "r0.U", "r0.b")), (relu, ()),
             (seq, ("r1.W", "r1.U", "r1.b")), (last, ()),
             (dense, ("out.W", "out.b"))]
    return Model(kind, w, h, ParamSet(arrays), chain)


def build_gru(w: int, h: int, seed: int = 0, hidden=RNN_HIDDEN) -> Model:
    """Stacked GRU (256, 128) with relu inter-layer projection, linear head."""
    return _build_recurrent("GRU", w, h, seed, hidden)


def build_lstm(w: int, h: int, seed: int = 0, hidden=RNN_HIDDEN) -> Model:
    """Stacked LSTM (256, 128) with relu inter-layer projection, linear head."""
    return _build_recurrent("LSTM", w, h, seed, hidden)


_BUILDERS = {"MLP": build_mlp, "CNN": build_cnn, "GRU": build_gru, "LSTM": build_lstm}
KINDS = tuple(_BUILDERS)


def build_model(kind: str, w: int, h: int, seed: int = 0, **overrides) -> Model:
    if kind not in _BUILDERS:
        raise ValueError(f"unknown architecture {kind!r}")
    return _BUILDERS[kind](w, h, seed=seed, **overrides)


# small widths for finite-difference checks; layer math is width-independent
SURROGATE_OVERRIDES = {
    "MLP": {"hidden": (6, 5)},
    "CNN": {"filters": (3, 3), "dense_size": 4},
    "GRU": {"hidden": (6, 5)},
    "LSTM": {"hidden": (6, 5)},
}


def build_surrogate(kind: str, w: int, h: int, seed: int = 0) -> Model:
    return build_model(kind, w, h, seed=seed, **SURROGATE_OVERRIDES[kind])
