"""Single-step forecasting with a small MLP, against a naive baseline.

Trains an MLP with a 3-day window on one symbol over several seeds and
reports the loss interval (mean +/- sample std of test MSE), next to
the persistence baseline that just repeats yesterday's price.
"""

import sys

import numpy as np

from stockcast.config import ExperimentConfig
from stockcast.experiment import TrainConfig, plan_grid, run_grid
from stockcast.runner import prepare_series
from stockcast.windowing import FunctionModel, rolling_test_forecast

DATA_DIR = sys.argv[1] if len(sys.argv) > 1 else "./data"
SYMBOL = "ACC"
W = 3

cfg = ExperimentConfig(data_dir=DATA_DIR, stocks=(SYMBOL,), models=("MLP",), windows=(W,),
                       n_runs=5, train=TrainConfig(seed=0))
series = prepare_series(cfg)
train_n, test_n = series[SYMBOL]
print(f"{SYMBOL}: {len(train_n)} train / {len(test_n)} test points, window {W}")

[cell] = run_grid(series, plan_grid(series, cfg))
iv = cell.interval
print(f"MLP test MSE over {iv.n_runs} seeds: {iv.mean:.3e} +/- {iv.std:.3e}")

persistence = FunctionModel(lambda x: x[-1], input_arity=W)
_, predictions, targets = rolling_test_forecast(persistence, test_n, W, (1,))[0]
print(f"persistence baseline test MSE:  {np.mean((predictions - targets) ** 2):.3e}")

best = min(cell.runs, key=lambda r: r.test_mse)
print(f"\nbest seed {best.seed}: first five forecasts (normalized)")
for origin, pred, target in zip(best.origins[:5], best.predictions[:5, 0],
                                best.targets[:5, 0]):
    print(f"  t={origin}: predicted {pred:.4f}, actual {target:.4f}")
