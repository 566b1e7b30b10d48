"""Supervised sample construction and the two multi-step forecast strategies.

Windows are rows of a [N, w] array.  Single-step forecasting is h = 1.
Direct multi-step: one model call maps every window to all h future
values.  Iterative multi-step: a single-output model is applied
recursively, feeding its own predictions back in; once more than w steps
have been predicted the input consists of predictions only.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArityMismatch, WindowTooLarge

# Origins per batched model call in rolling_test_forecast.  Evaluation
# still builds the autodiff graph, so its memory grows with the batch: at
# w=30 h=7, one batch of all 496 origins of a 532-point test series peaks
# at 402 MB RSS (GRU) and 488 MB (LSTM), chunks of 32 at 126 MB and
# 133 MB, of which about 104 MB is the interpreter and its imports.  A
# chunk of 32 keeps the evaluation graph no larger than a default
# training step's graph.
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
    width = h if strategy == "direct" else 1

    def call(x):
        out = np.asarray(model(x), dtype=np.float64)
        if out.shape != (n, width):
            raise ArityMismatch(f"model returned shape {out.shape}, expected {(n, width)}")
        return out

    if strategy == "direct":
        return call(windows)
    history = np.empty((n, w + h))
    history[:, :w] = windows
    for j in range(h):
        history[:, w + j] = call(history[:, j:j + w])[:, 0]
    return history[:, w:]


def rolling_test_forecast(model, test_values, w: int, h: int,
                          strategy: str = "direct", origin_stride: int = 1
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Teacher-forced rolling-origin forecasts over a test series.

    Every origin's input window holds true observed values; predictions
    are never reused across origins.  Returns (origins [N], predictions
    [N, h], targets [N, h]), where an origin counts the observed points
    preceding its forecast (the 0-based index of its first predicted point).
    """
    X, Y = make_samples(test_values, w, h)
    X, Y = X[::origin_stride], Y[::origin_stride]
    origins = w + origin_stride * np.arange(len(X))
    predictions = np.concatenate([forecast(model, X[k:k + EVAL_CHUNK], h, strategy)
                                  for k in range(0, len(X), EVAL_CHUNK)])
    return origins, predictions, np.array(Y)
