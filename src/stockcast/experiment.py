"""Seeded training loop and grid execution.

Per (stock, model, w, h) cell the protocol is: five independently
seeded train/test runs, each reporting the test MSE in normalized
space; `CellResult.summary` alone reduces them to the cell's mean,
sample std and run count.  Run seeds derive from the master seed as
master + i so any single run is re-executable in isolation.

`plan_grid(series, cfg)` checks the grid an `ExperimentConfig`
(`stockcast.config`, like `TrainConfig`) names against the data once and
lists its tasks, one per trained model, before anything trains.  The
iterative strategy's single-output model does not depend on h, so one
task per (stock, model, w, seed) serves every horizon; a direct task
serves one.  `run_grid` files each task's runs in the cells named by the
task's own fields, so results do not depend on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ExperimentConfig, TrainConfig
from .errors import NonFiniteLoss, WindowTooLarge
from .models import build_model, cnn_kernel
from .nn.layers import mse_loss
from .nn.optim import Adam
from .windowing import make_samples, rolling_test_forecast


@dataclass
class RunResult:
    seed: int
    test_mse: float
    loss_history: list[float]
    origins: np.ndarray      # [N] index of each forecast's first predicted point
    predictions: np.ndarray  # [N, h]
    targets: np.ndarray      # [N, h]


@dataclass
class CellResult:
    stock: str
    model: str
    w: int
    h: int
    strategy: str
    runs: list[RunResult] = field(default_factory=list)
    failed_runs: int = 0

    def summary(self) -> tuple[float | None, float | None, int]:
        """(mean, sample std, count) of the successful runs' test MSEs, failed
        runs not counted; the mean is None without a run, the std below two."""
        errors = [run.test_mse for run in self.runs]
        return (float(np.mean(errors)) if errors else None,
                float(np.std(errors, ddof=1)) if len(errors) > 1 else None, len(errors))


def train(model, X: np.ndarray, Y: np.ndarray, cfg: TrainConfig) -> list[float]:
    """Mini-batch Adam on MSE over samples X [n, w] -> Y [n, h]; returns
    the per-epoch mean batch loss.

    One `mse_loss` step and one Adam step per batch; windows of the wrong
    width raise ArityMismatch before the first, and a non-finite batch loss
    raises NonFiniteLoss, without numpy's overflow warnings on the way there.
    Mutates the model's parameters in place.  Identical (model, cfg)
    reproduce bit-identical histories on one platform.
    """
    n = len(X)
    if not n:
        raise ValueError("no training samples")
    model.check_window(X.shape)
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params, lr=cfg.lr)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(n) if cfg.shuffle else np.arange(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                loss, grads = mse_loss(model.chain, model.params, X[idx], Y[idx])
                value = float(loss)
                if not math.isfinite(value):
                    raise NonFiniteLoss(
                        f"{model.kind} diverged at epoch {len(history)}, batch {n_batches} "
                        f"(lr={cfg.lr}, seed={cfg.seed})"
                    )
                opt.step(grads)
                # freed before the next batch's forward, which would otherwise run beside them
                del grads
                epoch_loss += value
                n_batches += 1
            history.append(epoch_loss / n_batches)
    return history


@dataclass(frozen=True)
class Task:
    """One seeded model to train and evaluate.  It serves the cells
    (stock, kind, w, h) for each h in `horizons`."""
    stock: str
    kind: str
    w: int
    horizons: tuple[int, ...]
    strategy: str
    cfg: TrainConfig


def run_model(task: Task, train_values, test_values) -> list[RunResult] | None:
    """Train the task's seeded model, then evaluate it at each of its horizons.

    The direct strategy trains an h-output model, so a direct task has
    one horizon.  The iterative strategy trains a single-output model and
    feeds its predictions back in; nothing in that depends on h, so one
    model serves every horizon, and `rolling_test_forecast` forecasts
    them all at once.  Returns one RunResult per horizon, with the
    rolling-origin test MSE in normalized space, or None if training
    diverged.
    """
    cfg = task.cfg
    n_out = 1 if task.strategy == "iterative" else task.horizons[0]
    X, Y = make_samples(train_values, task.w, n_out)
    model = build_model(task.kind, task.w, n_out, seed=cfg.seed)
    try:
        history = train(model, X, Y, cfg)
    except NonFiniteLoss:
        return None
    forecasts = rolling_test_forecast(model, test_values, task.w, task.horizons,
                                      strategy=task.strategy, origin_stride=cfg.origin_stride)
    return [RunResult(seed=cfg.seed, test_mse=float(np.mean((predictions - targets) ** 2)),
                      loss_history=history, origins=origins,
                      predictions=predictions, targets=targets)
            for origins, predictions, targets in forecasts]


def plan_grid(series_by_stock: dict[str, tuple[np.ndarray, np.ndarray]],
              cfg: ExperimentConfig) -> list[Task]:
    """The tasks of the grid `cfg` names, one per seeded model, in grid
    order, then seed order (seeds cfg.train.seed + i).  `series_by_stock`
    maps each of cfg.stocks to (normalized train, test values).  `cfg`
    checked its own fields when built; this checks the grid against the
    data, raising WindowTooSmall for a window too short for a CNN and
    WindowTooLarge for a window and horizon too long for some series."""
    if "CNN" in cfg.models:
        for w in cfg.windows:
            cnn_kernel(w)  # raises WindowTooSmall below the CNN's minimum window
    for stock in cfg.stocks:
        tr, te = series_by_stock[stock]
        for w in cfg.windows:
            for h in cfg.horizons:
                n_out = 1 if cfg.strategy == "iterative" else h
                if len(tr) < w + n_out or len(te) < w + h:
                    raise WindowTooLarge(
                        f"stock {stock}: window {w}, horizon {h} need {w + n_out} train "
                        f"and {w + h} test points, have {len(tr)} and {len(te)}")
    # the horizons one model serves: all of them if iterative, its own if direct
    served = ([tuple(cfg.horizons)] if cfg.strategy == "iterative"
              else [(h,) for h in cfg.horizons])
    return [Task(stock, kind, w, hs, cfg.strategy, replace(cfg.train, seed=cfg.train.seed + i))
            for stock in cfg.stocks for kind in cfg.models for w in cfg.windows
            for hs in served for i in range(cfg.n_runs)]


def run_grid(series_by_stock: dict[str, tuple[np.ndarray, np.ndarray]],
             plan: list[Task], jobs: int = 1) -> list[CellResult]:
    """Run a `plan_grid` plan, unchecked, on at most min(jobs, tasks)
    workers: one CellResult per (stock, kind, w, h) the plan serves, in
    the order it first serves them.  Each task's runs are filed, in plan
    order, in the cells its own fields name; a diverged run fails every
    cell its task serves and never aborts other cells."""
    series = [series_by_stock[task.stock] for task in plan]
    # a forked pool starts every worker up front, so never more than there are tasks
    workers = min(jobs, len(plan))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_model, plan, *zip(*series)))
    else:
        outcomes = [run_model(task, tr, te) for task, (tr, te) in zip(plan, series)]

    cells = {}
    for task, runs in zip(plan, outcomes):
        for i, h in enumerate(task.horizons):
            cell = cells.setdefault((task.stock, task.kind, task.w, h), CellResult(
                stock=task.stock, model=task.kind, w=task.w, h=h, strategy=task.strategy))
            if runs is None:  # a diverged model fails every cell it serves
                cell.failed_runs += 1
            else:
                cell.runs.append(runs[i])
    return list(cells.values())
