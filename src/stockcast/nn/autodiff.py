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
# forward loops are plain array functions, `gru_forward` and
# `lstm_forward`, which graph-free prediction calls too.  They start from
# a given state or, given none, from a zero state, where step 0 skips the
# recurrent matmul.  The graph ops always start from zero, and no gradient
# flows into the initial state.  Their backward writes each step's gate
# gradients over that step's gate values, which it has read by then, so
# it needs no second [T, B, gates*n] array; a graph's backward runs once.


def _project(x, W, U, b, gates: int):
    """The flat time-major input [T*B, n_in] of x [T, B, n_in] and its
    projection x W^T + b [T, B, gates*n]; the forward loops add the
    recurrent term to the projection and overwrite it with the gate values
    step by step."""
    if x.ndim != 3 or U.ndim != 2:
        raise ShapeMismatch(f"sequence layer on time-major x {x.shape}, U {U.shape}")
    T, B, n_in = x.shape
    n = U.shape[1]
    if W.shape != (gates * n, n_in) or U.shape != (gates * n, n) or b.shape != (gates * n,):
        raise ShapeMismatch(f"sequence layer W {W.shape}, U {U.shape}, b {b.shape} "
                            f"for time-major input {x.shape}, {gates} gates")
    xt = x.reshape(T * B, n_in)
    xp = xt @ W.T
    xp += b
    return xt, xp.reshape(T, B, gates * n), n


def _check_state(name: str, state, B: int, n: int):
    shape = getattr(state, "shape", None)
    if shape != (B, n):
        raise ShapeMismatch(f"initial {name} of shape {shape}, expected {(B, n)}")


def _time_major(x: Tensor):
    if x.data.ndim != 3:
        raise ShapeMismatch(f"sequence layer on x {x.data.shape}, expected [B, T, n_in]")
    return x.data.transpose(1, 0, 2)


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


def gru_forward(x, W, U, b, h=None):
    """The GRU layer of `gru_seq` over time-major arrays x [T, B, n_in],
    from the state h [B, n] (None: zero).

    Returns (H, xt, G, RH): every hidden state H [T, B, n], the flat input
    xt [T*B, n_in], the gate values G [T, B, 3n] (z, r, h~) and the
    inputs r * h_prev of U_h, RH [T, B, n] (from step 1 when h is None).
    """
    xt, G, n = _project(x, W, U, b, 3)
    T, B = G.shape[:2]
    U_zr, U_h = U[:2 * n], U[2 * n:]
    H = np.empty((T, B, n))
    RH = np.empty((T, B, n))
    resume = h is not None
    if resume:
        _check_state("h", h, B, n)
    else:
        h = np.zeros((B, n))
    for t in range(T):
        a = G[t]
        if t or resume:
            a[:, :2 * n] = _sigmoid(a[:, :2 * n] + h @ U_zr.T)
            np.multiply(a[:, n:2 * n], h, out=RH[t])
            a[:, 2 * n:] = np.tanh(a[:, 2 * n:] + RH[t] @ U_h.T)
        else:
            a[:, :2 * n] = _sigmoid(a[:, :2 * n])
            a[:, 2 * n:] = np.tanh(a[:, 2 * n:])
        z, h_tilde = a[:, :n], a[:, 2 * n:]
        h = H[t] = h + z * (h_tilde - h)
    return H, xt, G, RH


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
    H, xt, G, RH = gru_forward(_time_major(x), W.data, U.data, b.data)
    T, B, n = H.shape
    U_zr, U_h = U.data[:2 * n], U.data[2 * n:]

    def backward(g):
        dH = g.transpose(1, 0, 2)
        dh = np.zeros((B, n))
        a = np.empty((B, 3 * n))  # step t's pre-activation gradients, kept in G[t]
        for t in range(T - 1, -1, -1):
            dh += dH[t]
            z, r, h_tilde = G[t, :, :n], G[t, :, n:2 * n], G[t, :, 2 * n:]
            h_prev = H[t - 1] if t else 0.0
            a[:, :n] = dh * (h_tilde - h_prev) * z * (1.0 - z)
            a[:, 2 * n:] = dh * z * (1.0 - h_tilde * h_tilde)
            if not t:
                a[:, n:2 * n] = 0.0
                G[t] = a
                break
            drh = a[:, 2 * n:] @ U_h
            a[:, n:2 * n] = drh * h_prev * r * (1.0 - r)
            dh = dh * (1.0 - z) + drh * r + a[:, :2 * n] @ U_zr
            G[t] = a
        dA = G
        _seq_grads(x, W, b, xt, dA)
        dU = np.empty_like(U.data)
        _outer_sum(dA[1:, :, :2 * n], H[:-1], out=dU[:2 * n])
        _outer_sum(dA[1:, :, 2 * n:], RH[1:], out=dU[2 * n:])
        _accum(U, dU)

    return Tensor(H.transpose(1, 0, 2), (x, W, U, b), backward)


def lstm_forward(x, W, U, b, h=None, c=None):
    """The LSTM layer of `lstm_seq` over time-major arrays x [T, B, n_in],
    from the state h, c [B, n] (None: zero; both or neither).

    Returns (H, C, xt, G, TC): every hidden state H and cell state C
    [T, B, n], the flat input xt [T*B, n_in], the gate values G
    [T, B, 4n] (i, f, o, g) and tanh(C).
    """
    xt, G, n = _project(x, W, U, b, 4)
    T, B = G.shape[:2]
    C = np.empty((T, B, n))
    TC = np.empty((T, B, n))
    H = np.empty((T, B, n))
    resume = h is not None or c is not None
    if resume:
        _check_state("h", h, B, n)
        _check_state("c", c, B, n)
    else:
        h = c = np.zeros((B, n))
    for t in range(T):
        a = G[t]
        if t or resume:
            a += h @ U.T
        a[:, :3 * n] = _sigmoid(a[:, :3 * n])
        a[:, 3 * n:] = np.tanh(a[:, 3 * n:])
        i, f, o, g = (a[:, k * n:(k + 1) * n] for k in range(4))
        c = C[t] = f * c + i * g
        np.tanh(c, out=TC[t])
        h = H[t] = o * TC[t]
    return H, C, xt, G, TC


def lstm_seq(x: Tensor, W: Tensor, U: Tensor, b: Tensor) -> Tensor:
    """An LSTM layer over whole sequences, from zero initial h and c.

    x: [B, T, n_in]; W: [4n, n_in], U: [4n, n], b: [4n] with the gate
    blocks in the order i, f, o, g.  Returns every hidden state, [B, T, n]:

        i, f, o = sigmoid(W_. x + U_. h + b_.);  g = tanh(W_g x + U_g h + b_g)
        c' = f * c + i * g;  h' = o * tanh(c')
    """
    H, C, xt, G, TC = lstm_forward(_time_major(x), W.data, U.data, b.data)
    T, B, n = H.shape

    def backward(grad):
        dH = grad.transpose(1, 0, 2)
        dh = np.zeros((B, n))
        dc = np.zeros((B, n))
        a = np.empty((B, 4 * n))  # step t's pre-activation gradients, kept in G[t]
        for t in range(T - 1, -1, -1):
            dh += dH[t]
            i, f, o, g = (G[t, :, k * n:(k + 1) * n] for k in range(4))
            dc = dc + dh * o * (1.0 - TC[t] * TC[t])
            a[:, :n] = dc * g
            a[:, n:2 * n] = dc * C[t - 1] if t else 0.0
            a[:, 2 * n:3 * n] = dh * TC[t]
            s = G[t, :, :3 * n]
            a[:, :3 * n] *= s * (1.0 - s)
            a[:, 3 * n:] = dc * i * (1.0 - g * g)
            if t:
                dh = a @ U.data
                dc = dc * f
            G[t] = a
        dA = G
        _seq_grads(x, W, b, xt, dA)
        _accum(U, _outer_sum(dA[1:], H[:-1]))

    return Tensor(H.transpose(1, 0, 2), (x, W, U, b), backward)
