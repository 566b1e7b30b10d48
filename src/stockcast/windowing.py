"""Supervised sample construction and the two multi-step forecast strategies.

Windows are rows of a [N, w] array.  Single-step forecasting is h = 1.
Direct multi-step: one model call maps every window to all h future
values.  Iterative multi-step: a single-output model is applied
recursively, feeding its own predictions back in; once more than w steps
have been predicted the input consists of predictions only.  A recurrent
model resumes each of those calls from the state its true values already
reached in another window, and runs only the predictions.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArityMismatch, WindowTooLarge

# Origins per model call in rolling_test_forecast's one chunk loop, which
# forecasts the shortest horizon's origins at the longest.  Memory grows
# with the batch: at w=30 h=7, iterative evaluation of all 496 origins of a
# 532-point test series in one batch peaks at 159 MB (GRU) and 206 MB
# (LSTM), in chunks of 32 at 53 and 58 MB, about 29 MB of it the
# interpreter and its imports (VmHWM of one fresh process per case, at
# production widths; Python 3.11, numpy 2.4.6).  It must be a multiple of
# `models.PAD_ROWS` and at most 32: even padded, CNN rows are not
# batch-invariant above 32 rows (in batches of 48 to 96, 5 to 8 of the
# first 16 rows differ at w = 5, 8 and 30; OpenBLAS 0.3.31, SkylakeX
# kernels).
EVAL_CHUNK = 32


class FunctionModel:
    """Wrap a plain function over one window as a forecasting model.

    Called on a [N, input_arity] batch, it applies the function row by
    row and counts one call per batch; a batch of any other shape is
    rejected before the function runs.
    """

    def __init__(self, fn, input_arity: int):
        self._fn = fn
        self.input_arity = input_arity
        self.n_calls = 0

    def __call__(self, windows) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 2 or windows.shape[1] != self.input_arity:
            raise ArityMismatch(
                f"windows {windows.shape}, expected [batch, {self.input_arity}]")
        self.n_calls += 1
        return np.array([np.atleast_1d(np.asarray(self._fn(row), dtype=np.float64))
                         for row in windows])


def make_samples(values, w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """All (length-w window, next-h block) pairs: X [n-w-h+1, w], Y [n-w-h+1, h].

    Row k is X = values[k:k+w], Y = values[k+w:k+w+h]; single-step is
    h = 1.  Both are read-only views of one float64 copy of `values`.
    """
    if w < 1 or h < 1:
        raise ValueError("window size and horizon must be >= 1")
    values = np.array(values, dtype=np.float64)
    n = len(values)
    if n < w + h:
        raise WindowTooLarge(f"series length {n} < window {w} + horizon {h}")
    blocks = sliding_window_view(values, w + h)
    return blocks[:, :w], blocks[:, w:]


def _checked(out, shape) -> np.ndarray:
    out = np.asarray(out, dtype=np.float64)
    if out.shape != shape:
        raise ArityMismatch(f"model returned shape {out.shape}, expected {shape}")
    return out


def forecast(model, windows, h: int, strategy: str) -> np.ndarray:
    """Forecast h steps from every row of `windows` [N, w]; returns [N, h].

    `direct` makes one model call with an h-output model.  `iterative`
    makes h calls with a single-output model; call j reads the last w
    columns of [windows | predictions so far].  The model checks its own
    input width; only the shape each call returns is checked here.
    """
    if strategy not in ("direct", "iterative"):
        raise ValueError(f"unknown strategy {strategy!r}")
    windows = np.asarray(windows, dtype=np.float64)
    n, w = windows.shape
    if strategy == "direct":
        return _checked(model(windows), (n, h))
    history = np.empty((n, w + h))
    history[:, :w] = windows
    for j in range(h):
        history[:, w + j] = _checked(model(history[:, j:j + w]), (n, 1))[:, 0]
    return history[:, w:]


def _resumed_iterative(model, values, starts, w: int, h: int) -> np.ndarray:
    """What `forecast(model, windows, h, "iterative")` returns for the
    windows values[k:k+w], k in `starts` [N], for a model with `predict`.

    Call j < w of the window at k reads the w - j true values from k + j
    on, then j predictions.  Every start k + j runs once over its true
    values; call 0 is that run of start k, and call j > 0 resumes from
    start k + j's states after w - j steps.  Then, in round r, every call
    j > r not yet done runs one step over prediction r, all in one batch;
    that step finishes call r + 1, the first n rows.  So call j runs its j
    predictions only.  A call j >= w reads predictions only and runs all w
    of them from a zero state.
    """
    if model.w != w:
        raise ArityMismatch(f"model window {model.w}, forecast window {w}")
    n, m, starts = len(starts), min(h, w), starts.tolist()
    # the last origins' later starts run past the series into these zeros;
    # of every start only the states over its true values are read
    values = np.concatenate([values, np.zeros(m - 1)])
    needed = sorted({k + j for k in starts for j in range(m)})
    windows = sliding_window_view(values, w)[needed]
    # only the states of the last m steps are read: the first w - m steps
    # run apart and keep only their final states, to hold fewer at once
    init = [s[-1].copy() for s in model.predict(windows[:, :w - m])[1]] if w > m else []
    y, prefix = model.predict(windows[:, w - m:], init)
    # row (j-1)*n + i is call j > 0 of window i: start starts[i] + j after
    # w - j steps (index lists in plain Python: a chunk has at most 32 * w)
    row = {k: i for i, k in enumerate(needed)}
    P = np.empty((n, h))
    P[:, 0] = _checked(y, (len(needed), 1))[[row[k] for k in starts], 0]
    rows = [row[k + j] for j in range(1, m) for k in starts]
    steps = np.repeat(m - 1 - np.arange(1, m), n)
    state = [s[steps, rows] for s in prefix]
    del prefix
    for r in range(m - 1):
        y, out = model.predict(np.tile(P[:, r:r + 1], (m - r - 1, 1)), state)
        P[:, r + 1] = _checked(y, ((m - r - 1) * n, 1))[:n, 0]
        state = [s[-1, n:] for s in out]
    for j in range(w, h):
        P[:, j] = _checked(model.predict(P[:, j - w:j])[0], (n, 1))[:, 0]
    return P


def rolling_test_forecast(model, test_values, w: int, horizons, strategy: str = "direct",
                          origin_stride: int = 1
                          ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Teacher-forced rolling-origin forecasts over a test series: one
    (origins [N], predictions [N, h], targets [N, h]) per h in `horizons`.

    Every input window holds true observed values; an origin is the
    0-based index of its first predicted point.  The shortest horizon's
    origins are forecast once, at the longest, EVAL_CHUNK at a time (by
    `_resumed_iterative` for a model with `predict`, else by `forecast`).
    Call j of an origin reads no later call and a row does not depend on
    its batch, so each horizon takes the first rows and h columns of it.
    """
    targets = [np.array(make_samples(test_values, w, h)[1][::origin_stride]) for h in horizons]
    X = make_samples(test_values, w, min(horizons))[0][::origin_stride]
    origins = w + origin_stride * np.arange(len(X))
    h, resumed = max(horizons), strategy == "iterative" and getattr(model, "state_widths", ())
    P = np.concatenate([
        _resumed_iterative(model, test_values, origins[k:k + EVAL_CHUNK] - w, w, h) if resumed
        else forecast(model, X[k:k + EVAL_CHUNK], h, strategy)
        for k in range(0, len(X), EVAL_CHUNK)])
    return [(origins[:len(Y)], P[:len(Y), :Y.shape[1]], Y) for Y in targets]
