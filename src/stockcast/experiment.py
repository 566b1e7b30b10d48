"""Seeded training loop and grid execution.

Per (stock, model, w, h) cell the protocol is: five independently
seeded train/test runs, each reporting the test MSE in normalized
space; the cell aggregates to a mean (+/- sample std) loss interval.
Run seeds derive from the master seed as master + i so any single run
is re-executable in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteLoss, TooFewRuns, WindowTooLarge
from .models import ArchSpec
from .nn.autodiff import Tensor
from .nn.layers import mse as mse_loss
from .nn.optim import Adam
from .windowing import make_samples, rolling_test_forecast


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    shuffle: bool = True
    origin_stride: int = 1
    scaler_scope: str = "train"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.scaler_scope not in ("train", "full"):
            raise ValueError(f"scaler_scope {self.scaler_scope!r} not in (train, full)")


@dataclass
class RunResult:
    seed: int
    train_mse: float
    test_mse: float
    loss_history: list[float]
    origins: np.ndarray      # [N] index of each forecast's first predicted point
    predictions: np.ndarray  # [N, h]
    targets: np.ndarray      # [N, h]


@dataclass(frozen=True)
class LossInterval:
    mean: float
    std: float
    n_runs: int


@dataclass
class CellResult:
    stock: str
    model: str
    w: int
    h: int
    strategy: str
    runs: list[RunResult] = field(default_factory=list)
    failed_runs: int = 0

    @property
    def interval(self) -> LossInterval:
        errors = [r.test_mse for r in self.runs]
        if len(errors) < 2:
            raise TooFewRuns(f"cell has {len(errors)} successful runs")
        return LossInterval(
            mean=float(np.mean(errors)),
            std=float(np.std(errors, ddof=1)),
            n_runs=len(errors),
        )


def train(model, X: np.ndarray, Y: np.ndarray, cfg: TrainConfig) -> list[float]:
    """Mini-batch Adam on MSE over samples X [n, w] -> Y [n, h]; returns
    the per-epoch mean batch loss.

    Mutates the model's parameters in place.  Identical (model, cfg)
    reproduce bit-identical histories on one platform.
    """
    n = len(X)
    if not n:
        raise ValueError("no training samples")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params, lr=cfg.lr)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            model.params.zero_grad()
            pred = model.forward(Tensor(X[idx]))
            loss = mse_loss(pred, Tensor(Y[idx]))
            value = float(loss.data)
            if not math.isfinite(value):
                raise NonFiniteLoss(
                    f"{model.kind} diverged at epoch {len(history)}, batch {n_batches} "
                    f"(lr={cfg.lr}, seed={cfg.seed})"
                )
            loss.backward()
            opt.step()
            epoch_loss += value
            n_batches += 1
        history.append(epoch_loss / n_batches)
    return history


def evaluate_run(model, test_values, w: int, h: int, strategy: str,
                 origin_stride: int = 1
                 ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Rolling-origin test MSE (normalized space) plus the (origins,
    predictions, targets) arrays of `rolling_test_forecast`."""
    origins, predictions, targets = rolling_test_forecast(
        model, test_values, w, h, strategy=strategy, origin_stride=origin_stride)
    return float(np.mean((predictions - targets) ** 2)), origins, predictions, targets


def run_cell(stock: str, train_values, test_values, arch: ArchSpec,
             cfg: TrainConfig, n_runs: int, strategy: str) -> CellResult:
    """Execute n_runs seeded train/evaluate runs on pre-normalized values.

    The iterative strategy trains a single-output model and feeds its
    predictions back in; the direct strategy trains an h-output model.
    """
    n_out = 1 if strategy == "iterative" else arch.h
    X, Y = make_samples(train_values, arch.w, n_out)
    spec = replace(arch, h=n_out)
    result = CellResult(stock=stock, model=arch.kind, w=arch.w, h=arch.h,
                        strategy=strategy)
    for i in range(n_runs):
        run_seed = cfg.seed + i
        model = spec.build(seed=run_seed)
        try:
            history = train(model, X, Y, replace(cfg, seed=run_seed))
            test_mse, origins, predictions, targets = evaluate_run(
                model, test_values, arch.w, arch.h, strategy, cfg.origin_stride)
        except NonFiniteLoss:
            result.failed_runs += 1
            continue
        result.runs.append(RunResult(
            seed=run_seed,
            train_mse=history[-1],
            test_mse=test_mse,
            loss_history=history,
            origins=origins,
            predictions=predictions,
            targets=targets,
        ))
    return result


def run_grid(series_by_stock: dict[str, tuple[np.ndarray, np.ndarray]],
             kinds: list[str], windows: list[int], horizons: list[int],
             cfg: TrainConfig, n_runs: int, strategy: str,
             jobs: int = 1, overrides: dict | None = None) -> list[CellResult]:
    """One CellResult per (stock, kind, w, h), row order deterministic.

    `series_by_stock` maps symbol -> (normalized train values, normalized
    test values).  A window and horizon too long for some stock's train
    or test series raise WindowTooLarge before any cell trains; divergent
    runs are counted in their cell and never abort other cells.
    """
    for stock, (tr, te) in series_by_stock.items():
        for w in windows:
            for h in horizons:
                n_out = 1 if strategy == "iterative" else h
                if len(tr) < w + n_out or len(te) < w + h:
                    raise WindowTooLarge(
                        f"stock {stock}: window {w}, horizon {h} need {w + n_out} train "
                        f"and {w + h} test points, have {len(tr)} and {len(te)}")
    tasks = [
        (stock, series_by_stock[stock], ArchSpec(kind, w, h, overrides or {}),
         cfg, n_runs, strategy)
        for stock in series_by_stock
        for kind in kinds
        for w in windows
        for h in horizons
    ]
    # a forked pool starts every worker up front, so never more than there are cells
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell_task, tasks))
    return [_run_cell_task(task) for task in tasks]


def _run_cell_task(task) -> CellResult:
    """One grid cell; a module-level function so the pool can pickle it."""
    stock, (tr, te), arch, cfg, n_runs, strategy = task
    return run_cell(stock, tr, te, arch, cfg, n_runs, strategy)
