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

from .errors import ArityMismatch, WindowTooSmall
from .nn import autodiff as ad
from .nn.autodiff import Tensor
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
    """A differentiable map from a length-w window to h outputs.

    A recurrent model also has a graph-free `predict`, which `__call__`
    uses and which can start from given per-layer states.  `__call__` and
    `predict` pad their batch to a multiple of PAD_ROWS rows.
    """

    def __init__(self, kind: str, w: int, h: int, params: ParamSet, forward_fn,
                 predict_fn=None):
        self.kind = kind
        self.w = w
        self.h = h
        self.params = params
        self._forward = forward_fn
        self._predict = predict_fn
        self.resumable = predict_fn is not None  # GRU, LSTM: `predict` exists

    def _check_window(self, shape):
        if len(shape) != 2 or shape[1] != self.w:
            raise ArityMismatch(f"forward input {shape}, expected [batch, {self.w}]")

    def forward(self, x: Tensor) -> Tensor:
        """x: Tensor [batch, w] -> Tensor [batch, h]."""
        self._check_window(x.data.shape)
        return self._forward(x, self.params)

    def predict(self, x, init=None):
        """Graph-free forward of a recurrent model over x [batch, T], any
        T >= 0, from the per-layer initial states `init` (None: zero).

        A layer's state is (h,) for a GRU and (h, c) for an LSTM, each
        [batch, n].  Returns (y [batch, h], states): states holds each
        layer's per-step states, (H,) or (H, C), each [T, batch, n].  With
        T = 0 the output head reads the initial state of the last layer.
        """
        x = np.asarray(x, dtype=np.float64)
        init = init and [tuple(_pad_rows(s) for s in layer) for layer in init]
        y, states = self._predict(_pad_rows(x), self.params, init)
        return y[:len(x)], [tuple(s[:, :len(x)] for s in layer) for layer in states]

    def __call__(self, windows) -> np.ndarray:
        """Numpy-in, numpy-out prediction: windows [N, w] -> [N, h]."""
        windows = np.asarray(windows, dtype=np.float64)
        self._check_window(windows.shape)
        if self.resumable:
            return self.predict(windows)[0]
        return self.forward(Tensor(_pad_rows(windows))).data[:len(windows)]

    def n_params(self) -> int:
        return self.params.n_scalars()


# --- seeded initialization ---------------------------------------------------

def _layer_rngs(seed: int, n: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _xavier_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _init_gated(rng, gates: int, n_in: int, n_hid: int) -> tuple[Tensor, Tensor, Tensor]:
    """Fused W [gates*n, n_in], U [gates*n, n] and zero b [gates*n].

    Each gate's W block, then its U block, is drawn in gate order, so the
    weights equal those of separately drawn per-gate matrices.
    """
    W, U = [], []
    for _ in range(gates):
        W.append(_xavier_uniform(rng, (n_hid, n_in), n_in, n_hid))
        U.append(_xavier_uniform(rng, (n_hid, n_hid), n_hid, n_hid))
    return Tensor(np.concatenate(W)), Tensor(np.concatenate(U)), Tensor(np.zeros(gates * n_hid))


# --- MLP ----------------------------------------------------------------------

def build_mlp(w: int, h: int, seed: int = 0, hidden=MLP_HIDDEN) -> Model:
    """dense(w->16) relu, dense(16->16) relu, dense(16->h) relu."""
    sizes = [w, *hidden, h]
    n_layers = len(sizes) - 1
    rngs = _layer_rngs(seed, n_layers)
    tensors = {}
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        # the relu head starts near mid-range (small weights, bias 0.5):
        # a head that is negative for every sample gets no gradient and
        # never recovers
        head = i == n_layers - 1
        w_scale = 0.1 if head else 1.0
        tensors[f"l{i}.W"] = Tensor(w_scale * _he_uniform(rngs[i], (n_out, n_in), n_in))
        tensors[f"l{i}.b"] = Tensor(np.full(n_out, 0.5 if head else 0.0))

    def forward(x, params):
        out = x
        for i in range(n_layers):
            out = ad.relu(ad.dense(out, params[f"l{i}.W"], params[f"l{i}.b"]))
        return out

    return Model("MLP", w, h, ParamSet(tensors), forward)


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
    tensors = {
        "conv0.K": Tensor(_he_uniform(rngs[0], (f1, 1, kernel), 1 * kernel)),
        "conv0.b": Tensor(np.zeros(f1)),
        "conv1.K": Tensor(_he_uniform(rngs[1], (f2, f1, kernel), f1 * kernel)),
        "conv1.b": Tensor(np.zeros(f2)),
        "fc0.W": Tensor(_he_uniform(rngs[2], (dense_size, flat), flat)),
        "fc0.b": Tensor(np.zeros(dense_size)),
        # relu output head starts near mid-range, same rationale as the MLP
        "fc1.W": Tensor(0.1 * _he_uniform(rngs[3], (h, dense_size), dense_size)),
        "fc1.b": Tensor(np.full(h, 0.5)),
    }

    def forward(x, params):
        b = x.data.shape[0]
        out = ad.reshape(x, (b, 1, x.data.shape[1]))
        out = ad.relu(ad.conv1d_channels(out, params["conv0.K"], params["conv0.b"]))
        out = ad.relu(ad.conv1d_channels(out, params["conv1.K"], params["conv1.b"]))
        out = ad.maxpool1d_op(out, CNN_POOL)
        out = ad.reshape(out, (b, flat))
        out = ad.relu(ad.dense(out, params["fc0.W"], params["fc0.b"]))
        return ad.relu(ad.dense(out, params["fc1.W"], params["fc1.b"]))

    return Model("CNN", w, h, ParamSet(tensors), forward)


# --- recurrent ----------------------------------------------------------------

def _build_recurrent(kind: str, w: int, h: int, seed: int, hidden) -> Model:
    # the graph op, its array forward, the gate count, and the state arrays
    # a layer carries (h; h and c)
    seq, run, gates, n_state = ((ad.gru_seq, ad.gru_forward, 3, 1) if kind == "GRU"
                                else (ad.lstm_seq, ad.lstm_forward, 4, 2))
    n1, n2 = hidden
    rngs = _layer_rngs(seed, 3)
    tensors = {}
    for layer, (n_in, n_hid) in enumerate(((1, n1), (n1, n2))):
        W, U, b = _init_gated(rngs[layer], gates, n_in, n_hid)
        tensors.update({f"r{layer}.W": W, f"r{layer}.U": U, f"r{layer}.b": b})
    # linear output head
    tensors["out.W"] = Tensor(_xavier_uniform(rngs[2], (h, n2), n2, h))
    tensors["out.b"] = Tensor(np.zeros(h))

    def forward(x, params):
        b, steps = x.data.shape
        h1 = seq(ad.reshape(x, (b, steps, 1)), params["r0.W"], params["r0.U"], params["r0.b"])
        h2 = seq(ad.relu(h1), params["r1.W"], params["r1.U"], params["r1.b"])
        return ad.dense(h2[:, -1], params["out.W"], params["out.b"])

    def predict(x, params, init):
        # the operations of `forward`, on arrays and time-major
        init = init or ((), ())

        def layer(i, inputs):
            W, U, b = (params[f"r{i}.{k}"].data for k in "WUb")
            return run(inputs, W, U, b, *init[i])[:n_state]

        s1 = layer(0, x.T[:, :, None])
        H1 = s1[0]
        s2 = layer(1, H1 * (H1 > 0.0))
        last = s2[0][-1] if len(s2[0]) else init[1][0]
        return last @ params["out.W"].data.T + params["out.b"].data, (s1, s2)

    return Model(kind, w, h, ParamSet(tensors), forward, predict)


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
