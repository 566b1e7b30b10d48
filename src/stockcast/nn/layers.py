"""The layers of the four forecasting models, as plain array functions.

A layer is a pair of functions: `forward(x, *params) -> (y, cache)` and
`backward(cache, g, *params) -> (dx, param_grads)`, where g is the
gradient of the loss with respect to y and `param_grads` holds one
gradient per parameter, in order.  The layers are a dense layer (which
flattens its input), relu, a valid-mode 1-D convolution, a
non-overlapping max-pool, whole-sequence GRU and LSTM layers (backward
through time) and `last`, a sequence's last step.  Every model is a
straight chain of `(layer, parameter names)` steps, which `run`
evaluates and `backprop` differentiates: each array gets one gradient,
so nothing is accumulated.  `mse_loss`, the one training step, defines
the MSE loss: training runs it on every batch, and the checks verify it.
Everything is float64 so finite-difference checks are meaningful.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ShapeMismatch


class Layer(NamedTuple):
    forward: Callable
    backward: Callable
    # the state arrays a recurrent layer can start from, each [B, n]
    state: tuple[str, ...] = ()


def run(chain, params, x, init=(), keep=False):
    """Run the `(layer, parameter names)` steps of `chain` over x.

    The recurrent layers start from the state arrays in `init`, one flat
    list in chain order with `len(layer.state)` arrays per recurrent
    layer (empty: zero states).  Returns (y, out): with `keep`, out is
    every step's cache, for one `backprop`, which empties the list;
    otherwise the caches are dropped as the chain goes, and out is the
    per-step states in the order of `init`, each [T, B, n].
    """
    init = iter(init)
    out = []
    for layer, names in chain:
        args = [params[k] for k in names] + [next(init, None) for _ in layer.state]
        x, cache = layer.forward(x, *args)
        if keep:
            out.append(cache)
        elif layer.state:
            out += cache[:len(layer.state)]
    return x, out


def backprop(chain, params, caches, g):
    """From the caches of `run(..., keep=True)` and g = dloss/dy, the
    gradient of the chain's input and {name: gradient} of its parameters.
    Pops each step's cache just before its backward, so the cache is freed
    once that has run and the list ends empty; a list whose length is not
    the chain's (one already backpropagated) raises ShapeMismatch."""
    if len(caches) != len(chain):
        raise ShapeMismatch(f"{len(caches)} caches for a chain of {len(chain)} steps")
    grads = {}
    for layer, names in reversed(chain):
        g, param_grads = layer.backward(caches.pop(), g, *(params[k] for k in names))
        grads.update(zip(names, param_grads))
    return g, grads


def mse_loss(chain, params, x, target, grads=True):
    """The training step: (loss, grads) of the mean squared error of
    chain(x) against target, with the gradient of x as grads["x"];
    without `grads` the loss alone, with no caches kept and no backward."""
    y, caches = run(chain, params, x, keep=grads)
    if y.shape != target.shape:
        raise ShapeMismatch(f"mse shapes {y.shape} vs {target.shape}")
    diff = y - target
    loss = (diff * diff).mean()
    if not grads:
        return loss
    dx, grads = backprop(chain, params, caches, (2.0 / diff.size) * diff)
    return loss, {"x": dx, **grads}


# --- input layouts -------------------------------------------------------------
#
# A batch of windows [B, w] as the one input channel of a convolution
# [B, 1, w], and as a time-major sequence of scalars [w, B, 1].

channels = Layer(lambda x: (x.reshape(len(x), 1, x.shape[1]), None),
                 lambda _, g: (g.reshape(len(g), g.shape[2]), ()))
time_major = Layer(lambda x: (x.T[:, :, None], None), lambda _, g: (g[:, :, 0].T, ()))


# --- relu and dense layer ------------------------------------------------------

def _relu(x):
    # subgradient at 0 is 0
    mask = x > 0.0
    return x * mask, mask


relu = Layer(_relu, lambda mask, g: (g * mask, ()))


def _dense(x, W, b):
    """y = x W^T + b for x [batch, ...] flattened to [batch, in], W [out, in], b [out]."""
    if W.ndim != 2 or b.shape != (W.shape[0],):
        raise ShapeMismatch(f"dense W {W.shape} / b {b.shape}")
    if x.ndim < 2 or math.prod(x.shape[1:]) != W.shape[1]:
        raise ShapeMismatch(f"dense input {x.shape} vs W {W.shape}")
    flat = x.reshape(len(x), W.shape[1])
    return flat @ W.T + b, (x.shape, flat)


def _dense_backward(cache, g, W, b):
    shape, flat = cache
    return (g @ W).reshape(shape), (g.T @ flat, g.sum(axis=0))


dense = Layer(_dense, _dense_backward)


# --- convolution and pooling ------------------------------------------------

def _conv1d(x, kernels, bias):
    """Valid-mode stride-1 convolution.

    x: [batch, in_ch, length]; kernels: [filters, in_ch, k]; bias: [filters].
    Returns [batch, filters, length - k + 1].
    """
    if x.ndim != 3 or kernels.ndim != 3:
        raise ShapeMismatch("conv1d expects [B,C,L] input and [F,C,k] kernels")
    B, C, L = x.shape
    F, Ck, k = kernels.shape
    if Ck != C or bias.shape != (F,):
        raise ShapeMismatch("conv1d kernel/bias shapes disagree with input")
    if L < k:
        raise ShapeMismatch(f"conv1d input length {L} shorter than kernel {k}")
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)
    # optimize=True turns each contraction into a BLAS matmul
    y = (np.einsum("bclk,fck->bfl", windows, kernels, optimize=True)
         + bias[None, :, None])
    return y, (x, windows)


def _conv1d_backward(cache, g, kernels, bias):
    x, windows = cache
    # the reductions below round differently on other layouts
    g = np.ascontiguousarray(g)
    k = kernels.shape[2]
    Lo = g.shape[2]
    dx = np.zeros_like(x)
    for d in range(k):
        dx[:, :, d:d + Lo] += np.einsum("bfl,fc->bcl", g, kernels[:, :, d], optimize=True)
    dK = np.einsum("bfl,bclk->fck", g, windows, optimize=True)
    return dx, (dK, g.sum(axis=(0, 2)))


conv1d = Layer(_conv1d, _conv1d_backward)


def maxpool(pool: int) -> Layer:
    """Non-overlapping max-pool of size `pool` over the last axis; the
    trailing remainder is dropped and ties break to the first maximal
    index."""
    if pool < 1:
        raise ShapeMismatch("pool size must be >= 1")

    def forward(x):
        m = x.shape[-1] // pool
        lead = x.shape[:-1]
        trimmed = x[..., :m * pool].reshape(*lead, m, pool)
        idx = trimmed.argmax(axis=-1)
        return np.take_along_axis(trimmed, idx[..., None], axis=-1)[..., 0], (x.shape, idx)

    def backward(cache, g):
        shape, idx = cache
        *lead, m = idx.shape
        dtrim = np.zeros((*lead, m, pool))
        np.put_along_axis(dtrim, idx[..., None], g[..., None], axis=-1)
        dx = np.zeros(shape)
        dx[..., :m * pool] = dtrim.reshape(*lead, m * pool)
        return dx, ()

    return Layer(forward, backward)


# --- recurrent sequences ----------------------------------------------------
#
# One layer per sequence, in the fused-gate layout of Appleyard et al.
# (2016): the gate blocks of a layer are stacked into one W [gates*n, n_in],
# one U [gates*n, n] and one b [gates*n].  The input projection runs once
# for all steps, each step makes the recurrent matmuls only, and the
# backward through time stores the per-step gate gradients so dW, db and
# each block of dU are one matmul or sum over the B*T rows.
# Work is time-major ([T, B, .]) so every step reads contiguous rows.  The
# forwards start from a given state or, given none, from a zero state,
# where step 0 skips the recurrent matmul.  The backwards differentiate a
# run from the zero state (training never starts from another), with no
# gradient for the state.  They write each step's gate gradients over that
# step's gate values, which they have read by then, so they need no second
# [T, B, gates*n] array; a forward's cache is backpropagated once.  A cache
# keeps no array its backward rebuilds in one elementwise pass by the same
# operation, bit for bit (the GRU's r * h_prev on entry, the LSTM's tanh(c) per step).


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def _project(x, W, U, b, gates: int):
    """The flat time-major input [T*B, n_in] of x [T, B, n_in] and its
    projection x W^T + b [T, B, gates*n]; the forward loops add the
    recurrent term to the projection and overwrite it with the gate values
    step by step."""
    if x.ndim != 3 or not len(x) or U.ndim != 2:
        raise ShapeMismatch(f"sequence layer on time-major x {x.shape} (T >= 1), U {U.shape}")
    T, B, n_in = x.shape
    n = U.shape[1]
    if W.shape != (gates * n, n_in) or U.shape != (gates * n, n) or b.shape != (gates * n,):
        raise ShapeMismatch(f"sequence layer W {W.shape}, U {U.shape}, b {b.shape} "
                            f"for time-major input {x.shape}, {gates} gates")
    xt = x.reshape(T * B, n_in)
    xp = xt @ W.T
    xp += b
    return xt, xp.reshape(T, B, gates * n), n


def check_state(name: str, state, B: int, n: int):
    """Raise ShapeMismatch unless the initial state `name` is [B, n]."""
    shape = getattr(state, "shape", None)
    if shape != (B, n):
        raise ShapeMismatch(f"initial {name} of shape {shape}, expected {(B, n)}")


def _seq_grads(W, xt, dA):
    """dx [T, B, n_in], dW and db from the pre-activation gradients dA [T, B, gates*n]."""
    T, B, width = dA.shape
    flat = dA.reshape(T * B, width)
    return (flat @ W).reshape(T, B, -1), flat.T @ xt, flat.sum(axis=0)


def _outer_sum(dA, inputs, out=None):
    """sum over steps and batch of dA[t]^T inputs[t]: one matmul over the rows."""
    return np.matmul(dA.reshape(-1, dA.shape[2]).T, inputs.reshape(-1, inputs.shape[2]),
                     out=out)


def gru_forward(x, W, U, b, h=None):
    """A GRU layer over time-major x [T, B, n_in], from the state h [B, n]
    (None: zero).

    W: [3n, n_in], U: [3n, n], b: [3n] with the gate blocks in the order
    z, r, h.  The reset gate is applied before the recurrent matrix (the
    original-report GRU variant):

        z = sigmoid(W_z x + U_z h + b_z)
        r = sigmoid(W_r x + U_r h + b_r)
        h~ = tanh(W_h x + U_h (r * h) + b_h)
        h' = h + z * (h~ - h)

    Returns every hidden state H [T, B, n] and the cache (H, xt, G): the
    flat input xt [T*B, n_in] and the gate values G [T, B, 3n] (z, r, h~).
    """
    xt, G, n = _project(x, W, U, b, 3)
    T, B = G.shape[:2]
    U_zr, U_h = U[:2 * n], U[2 * n:]
    H = np.empty((T, B, n))
    resume = h is not None
    if resume:
        check_state("h", h, B, n)
    else:
        h = np.zeros((B, n))
    for t in range(T):
        a = G[t]
        if t or resume:
            a[:, :2 * n] = _sigmoid(a[:, :2 * n] + h @ U_zr.T)
            a[:, 2 * n:] = np.tanh(a[:, 2 * n:] + (a[:, n:2 * n] * h) @ U_h.T)
        else:
            a[:, :2 * n] = _sigmoid(a[:, :2 * n])
            a[:, 2 * n:] = np.tanh(a[:, 2 * n:])
        z, h_tilde = a[:, :n], a[:, 2 * n:]
        h = H[t] = h + z * (h_tilde - h)
    return H, (H, xt, G)


def _gru_backward(cache, dH, W, U, b):
    H, xt, G = cache
    T, B, n = H.shape
    U_zr, U_h = U[:2 * n], U[2 * n:]
    RH = G[1:, :, n:2 * n] * H[:-1]  # the inputs r * h_prev of U_h, before G is overwritten
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
    dx, dW, db = _seq_grads(W, xt, dA)
    dU = np.empty_like(U)
    _outer_sum(dA[1:, :, :2 * n], H[:-1], out=dU[:2 * n])
    _outer_sum(dA[1:, :, 2 * n:], RH, out=dU[2 * n:])
    return dx, (dW, dU, db)


gru = Layer(gru_forward, _gru_backward, ("h",))


def lstm_forward(x, W, U, b, h=None, c=None):
    """An LSTM layer over time-major x [T, B, n_in], from the state h, c
    [B, n] (None: zero; both or neither).

    W: [4n, n_in], U: [4n, n], b: [4n] with the gate blocks in the order
    i, f, o, g:

        i, f, o = sigmoid(W_. x + U_. h + b_.);  g = tanh(W_g x + U_g h + b_g)
        c' = f * c + i * g;  h' = o * tanh(c')

    Returns every hidden state H [T, B, n] and the cache (H, C, xt, G):
    every cell state C [T, B, n], the flat input xt [T*B, n_in] and the
    gate values G [T, B, 4n] (i, f, o, g).
    """
    xt, G, n = _project(x, W, U, b, 4)
    T, B = G.shape[:2]
    C = np.empty((T, B, n))
    H = np.empty((T, B, n))
    resume = h is not None or c is not None
    if resume:
        check_state("h", h, B, n)
        check_state("c", c, B, n)
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
        h = H[t] = o * np.tanh(c)
    return H, (H, C, xt, G)


def _lstm_backward(cache, dH, W, U, b):
    H, C, xt, G = cache
    T, B, n = H.shape
    dh = np.zeros((B, n))
    dc = np.zeros((B, n))
    a = np.empty((B, 4 * n))  # step t's pre-activation gradients, kept in G[t]
    for t in range(T - 1, -1, -1):
        dh += dH[t]
        i, f, o, g = (G[t, :, k * n:(k + 1) * n] for k in range(4))
        tc = np.tanh(C[t])
        dc = dc + dh * o * (1.0 - tc * tc)
        a[:, :n] = dc * g
        a[:, n:2 * n] = dc * C[t - 1] if t else 0.0
        a[:, 2 * n:3 * n] = dh * tc
        s = G[t, :, :3 * n]
        a[:, :3 * n] *= s * (1.0 - s)
        a[:, 3 * n:] = dc * i * (1.0 - g * g)
        if t:
            dh = a @ U
            dc = dc * f
        G[t] = a
    dA = G
    dx, dW, db = _seq_grads(W, xt, dA)
    return dx, (dW, _outer_sum(dA[1:], H[:-1]), db)


lstm = Layer(lstm_forward, _lstm_backward, ("h", "c"))


def _last_backward(shape, g):
    dH = np.zeros(shape)
    dH[-1] = g
    return dH, ()


# the last step [B, n] of a time-major sequence [T, B, n]
last = Layer(lambda H: (H[-1], H.shape), _last_backward)
