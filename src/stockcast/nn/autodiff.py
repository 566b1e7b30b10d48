"""Minimal reverse-mode autodiff over numpy arrays.

Each graph node is one op of the four forecasting models, with a
hand-written backward: a dense layer, relu, reshape, slicing, a
valid-mode 1-D convolution, a non-overlapping max-pool, whole-sequence
GRU and LSTM layers (backward through time), and the MSE loss.
Everything is float64 so finite-difference checks are meaningful.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


class Tensor:
    """A numpy array plus the closure that routes gradients to its parents."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def backward(self):
        if self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar output")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __getitem__(self, key):
        return take(self, key)


def _accum(t: Tensor, g: np.ndarray):
    # Invariant: every backward hands each parent an array that nothing
    # else holds, so a first gradient that owns its C-order memory is kept
    # as it is and later ones are added into it.  A view (reshape hands on
    # one of the child's gradient) is copied, or adding into it would write
    # through to the child; so is a non-C-order array (einsum can return
    # one), because the reductions of conv1d_channels round differently on
    # other layouts.
    if t.grad is None:
        t.grad = g if g.base is None and g.flags.c_contiguous else g.copy()
    else:
        t.grad += g


# --- elementwise ------------------------------------------------------------

def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is 0
    mask = a.data > 0.0

    def backward(g):
        _accum(a, g * mask)

    return Tensor(a.data * mask, (a,), backward)


# --- shape plumbing ---------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), (a,), backward)


def take(a: Tensor, key) -> Tensor:
    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        _accum(a, full)

    return Tensor(a.data[key], (a,), backward)


# --- dense layer and loss ---------------------------------------------------

def dense(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """y = x W^T + b for x: [batch, in], W: [out, in], b: [out]."""
    if W.data.ndim != 2 or b.data.shape != (W.data.shape[0],):
        raise ShapeMismatch(f"dense W {W.data.shape} / b {b.data.shape}")
    if x.data.ndim != 2 or x.data.shape[1] != W.data.shape[1]:
        raise ShapeMismatch(f"dense input {x.data.shape} vs W {W.data.shape}")

    def backward(g):
        _accum(x, g @ W.data)
        _accum(W, g.T @ x.data)
        _accum(b, g.sum(axis=0))

    return Tensor(x.data @ W.data.T + b.data, (x, W, b), backward)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    if pred.data.shape != target.data.shape:
        raise ShapeMismatch(f"mse shapes {pred.data.shape} vs {target.data.shape}")
    diff = pred.data - target.data

    def backward(g):
        d_pred = (2.0 * float(g) / diff.size) * diff
        _accum(pred, d_pred)
        _accum(target, -d_pred)

    return Tensor((diff * diff).mean(), (pred, target), backward)


# --- convolution and pooling ------------------------------------------------

def conv1d_channels(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid-mode stride-1 convolution.

    x: [batch, in_ch, length]; kernels: [filters, in_ch, k]; bias: [filters].
    Returns [batch, filters, length - k + 1].
    """
    if x.data.ndim != 3 or kernels.data.ndim != 3:
        raise ShapeMismatch("conv1d expects [B,C,L] input and [F,C,k] kernels")
    B, C, L = x.data.shape
    F, Ck, k = kernels.data.shape
    if Ck != C or bias.data.shape != (F,):
        raise ShapeMismatch("conv1d kernel/bias shapes disagree with input")
    if L < k:
        raise ShapeMismatch(f"conv1d input length {L} shorter than kernel {k}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=2)
    # optimize=True turns each contraction into a BLAS matmul
    out_data = (np.einsum("bclk,fck->bfl", windows, kernels.data, optimize=True)
                + bias.data[None, :, None])
    Lo = L - k + 1

    def backward(g):
        _accum(kernels, np.einsum("bfl,bclk->fck", g, windows, optimize=True))
        _accum(bias, g.sum(axis=(0, 2)))
        dx = np.zeros_like(x.data)
        for d in range(k):
            dx[:, :, d:d + Lo] += np.einsum("bfl,fc->bcl", g, kernels.data[:, :, d],
                                            optimize=True)
        _accum(x, dx)

    return Tensor(out_data, (x, kernels, bias), backward)


def maxpool1d_op(x: Tensor, pool: int) -> Tensor:
    """Non-overlapping max-pool over the last axis; trailing remainder dropped.

    Ties break to the first maximal index.
    """
    if pool < 1:
        raise ShapeMismatch("pool size must be >= 1")
    L = x.data.shape[-1]
    m = L // pool
    lead = x.data.shape[:-1]
    trimmed = x.data[..., :m * pool].reshape(*lead, m, pool)
    idx = trimmed.argmax(axis=-1)
    out_data = np.take_along_axis(trimmed, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        dtrim = np.zeros_like(trimmed)
        np.put_along_axis(dtrim, idx[..., None], g[..., None], axis=-1)
        dx = np.zeros_like(x.data)
        dx[..., :m * pool] = dtrim.reshape(*lead, m * pool)
        _accum(x, dx)

    return Tensor(out_data, (x,), backward)


# --- recurrent sequences ----------------------------------------------------
#
# One graph node per layer and sequence, in the fused-gate layout of
# Appleyard et al. (2016): the gate blocks of a layer are stacked into one
# W [gates*n, n_in], one U [gates*n, n] and one b [gates*n].  The input
# projection runs once for all steps, each step makes the recurrent
# matmuls only, and the backward through time stores the per-step gate
# gradients so dW, db and each block of dU are one matmul or sum over the
# B*T rows.
# Work is time-major ([T, B, .]) so every step reads contiguous rows.  The
# initial state is a constant zero: step 0 skips the recurrent matmul, and
# no gradient flows into it.


def _seq_setup(x: Tensor, W: Tensor, U: Tensor, b: Tensor, gates: int):
    """Time-major input [T, B, n_in] and its projection x W^T + b [T, B, gates*n];
    the ops add the recurrent term to the projection and overwrite it with
    the gate values step by step."""
    if x.data.ndim != 3 or U.data.ndim != 2:
        raise ShapeMismatch(f"sequence layer on x {x.data.shape}, U {U.data.shape}")
    B, T, n_in = x.data.shape
    n = U.data.shape[1]
    if (W.data.shape != (gates * n, n_in) or U.data.shape != (gates * n, n)
            or b.data.shape != (gates * n,)):
        raise ShapeMismatch(f"sequence layer W {W.data.shape}, U {U.data.shape}, "
                            f"b {b.data.shape} for input {x.data.shape}, {gates} gates")
    xt = x.data.transpose(1, 0, 2).reshape(T * B, n_in)
    xp = xt @ W.data.T
    xp += b.data
    return xt, xp.reshape(T, B, gates * n), n


def _seq_grads(x: Tensor, W: Tensor, b: Tensor, xt, dA):
    """Accumulate dx, dW and db from the pre-activation gradients dA [T, B, gates*n]."""
    T, B, width = dA.shape
    flat = dA.reshape(T * B, width)
    _accum(W, flat.T @ xt)
    _accum(b, flat.sum(axis=0))
    _accum(x, (flat @ W.data).reshape(T, B, -1).transpose(1, 0, 2))


def _outer_sum(dA, inputs, out=None):
    """sum over steps and batch of dA[t]^T inputs[t]: one matmul over the rows."""
    return np.matmul(dA.reshape(-1, dA.shape[2]).T, inputs.reshape(-1, inputs.shape[2]),
                     out=out)


def gru_seq(x: Tensor, W: Tensor, U: Tensor, b: Tensor) -> Tensor:
    """A GRU layer over whole sequences, from a zero initial state.

    x: [B, T, n_in]; W: [3n, n_in], U: [3n, n], b: [3n] with the gate
    blocks in the order z, r, h.  Returns every hidden state, [B, T, n].
    The reset gate is applied before the recurrent matrix (the
    original-report GRU variant):

        z = sigmoid(W_z x + U_z h + b_z)
        r = sigmoid(W_r x + U_r h + b_r)
        h~ = tanh(W_h x + U_h (r * h) + b_h)
        h' = h + z * (h~ - h)
    """
    xt, G, n = _seq_setup(x, W, U, b, 3)   # G[t]: z, r, h~
    T, B = G.shape[:2]
    U_zr, U_h = U.data[:2 * n], U.data[2 * n:]
    H = np.empty((T, B, n))
    RH = np.empty((T, B, n))      # r * h_prev, the input of U_h (from step 1)
    h = np.zeros((B, n))
    for t in range(T):
        a = G[t]
        if t:
            a[:, :2 * n] = _sigmoid(a[:, :2 * n] + h @ U_zr.T)
            np.multiply(a[:, n:2 * n], h, out=RH[t])
            a[:, 2 * n:] = np.tanh(a[:, 2 * n:] + RH[t] @ U_h.T)
        else:
            a[:, :2 * n] = _sigmoid(a[:, :2 * n])
            a[:, 2 * n:] = np.tanh(a[:, 2 * n:])
        z, h_tilde = a[:, :n], a[:, 2 * n:]
        h = H[t] = h + z * (h_tilde - h)

    def backward(g):
        dH = g.transpose(1, 0, 2)
        dA = np.empty((T, B, 3 * n))
        dh = np.zeros((B, n))
        for t in range(T - 1, -1, -1):
            dh += dH[t]
            z, r, h_tilde = G[t, :, :n], G[t, :, n:2 * n], G[t, :, 2 * n:]
            h_prev = H[t - 1] if t else 0.0
            dA[t, :, :n] = dh * (h_tilde - h_prev) * z * (1.0 - z)
            dA[t, :, 2 * n:] = dh * z * (1.0 - h_tilde * h_tilde)
            if not t:
                dA[t, :, n:2 * n] = 0.0
                break
            drh = dA[t, :, 2 * n:] @ U_h
            dA[t, :, n:2 * n] = drh * h_prev * r * (1.0 - r)
            dh = dh * (1.0 - z) + drh * r + dA[t, :, :2 * n] @ U_zr
        _seq_grads(x, W, b, xt, dA)
        dU = np.empty_like(U.data)
        _outer_sum(dA[1:, :, :2 * n], H[:-1], out=dU[:2 * n])
        _outer_sum(dA[1:, :, 2 * n:], RH[1:], out=dU[2 * n:])
        _accum(U, dU)

    return Tensor(H.transpose(1, 0, 2), (x, W, U, b), backward)


def lstm_seq(x: Tensor, W: Tensor, U: Tensor, b: Tensor) -> Tensor:
    """An LSTM layer over whole sequences, from zero initial h and c.

    x: [B, T, n_in]; W: [4n, n_in], U: [4n, n], b: [4n] with the gate
    blocks in the order i, f, o, g.  Returns every hidden state, [B, T, n]:

        i, f, o = sigmoid(W_. x + U_. h + b_.);  g = tanh(W_g x + U_g h + b_g)
        c' = f * c + i * g;  h' = o * tanh(c')
    """
    xt, G, n = _seq_setup(x, W, U, b, 4)   # G[t]: i, f, o, g
    T, B = G.shape[:2]
    C = np.empty((T, B, n))
    TC = np.empty((T, B, n))      # tanh(c)
    H = np.empty((T, B, n))
    h = c = np.zeros((B, n))
    for t in range(T):
        a = G[t]
        if t:
            a += h @ U.data.T
        a[:, :3 * n] = _sigmoid(a[:, :3 * n])
        a[:, 3 * n:] = np.tanh(a[:, 3 * n:])
        i, f, o, g = (a[:, k * n:(k + 1) * n] for k in range(4))
        c = C[t] = f * c + i * g
        np.tanh(c, out=TC[t])
        h = H[t] = o * TC[t]

    def backward(grad):
        dH = grad.transpose(1, 0, 2)
        dA = np.empty((T, B, 4 * n))
        dh = np.zeros((B, n))
        dc = np.zeros((B, n))
        for t in range(T - 1, -1, -1):
            dh += dH[t]
            i, f, o, g = (G[t, :, k * n:(k + 1) * n] for k in range(4))
            dc = dc + dh * o * (1.0 - TC[t] * TC[t])
            dA[t, :, :n] = dc * g
            dA[t, :, n:2 * n] = dc * C[t - 1] if t else 0.0
            dA[t, :, 2 * n:3 * n] = dh * TC[t]
            s = G[t, :, :3 * n]
            dA[t, :, :3 * n] *= s * (1.0 - s)
            dA[t, :, 3 * n:] = dc * i * (1.0 - g * g)
            if t:
                dh = dA[t] @ U.data
                dc = dc * f
        _seq_grads(x, W, b, xt, dA)
        _accum(U, _outer_sum(dA[1:], H[:-1]))

    return Tensor(H.transpose(1, 0, 2), (x, W, U, b), backward)
