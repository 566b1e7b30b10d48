"""Single-step forecasting with a small MLP, against a naive baseline.

Trains an MLP with a 3-day window on one symbol over several seeds and
reports the loss interval (mean +/- sample std of test MSE), next to
the persistence baseline that just repeats yesterday's price.
"""

import os
import sys
from datetime import date

import numpy as np

from stockcast.experiment import TrainConfig, run_grid
from stockcast.ingest import load_series
from stockcast.preprocess import fit_scaler, scale, split_by_date
from stockcast.windowing import FunctionModel, rolling_test_forecast

DATA_DIR = sys.argv[1] if len(sys.argv) > 1 else "./data"
SYMBOL = "ACC"
W = 3

ts, _ = load_series(os.path.join(DATA_DIR, f"{SYMBOL}.csv"), SYMBOL)
split = split_by_date(ts, date(2017, 1, 1))
scaler = fit_scaler(split.train.values)
train_n = scale(scaler, split.train.values)
test_n = scale(scaler, split.test.values)
print(f"{SYMBOL}: {len(train_n)} train / {len(test_n)} test points, window {W}")

[cell] = run_grid({SYMBOL: (train_n, test_n)}, ["MLP"], [W], [1],
                  TrainConfig(seed=0), n_runs=5, strategy="direct")
iv = cell.interval
print(f"MLP test MSE over {iv.n_runs} seeds: {iv.mean:.3e} +/- {iv.std:.3e}")

persistence = FunctionModel(lambda x: x[-1], input_arity=W)
_, predictions, targets = rolling_test_forecast(persistence, test_n, W, 1)
print(f"persistence baseline test MSE:  {np.mean((predictions - targets) ** 2):.3e}")

best = min(cell.runs, key=lambda r: r.test_mse)
print(f"\nbest seed {best.seed}: first five forecasts (normalized)")
for origin, pred, target in zip(best.origins[:5], best.predictions[:5, 0],
                                best.targets[:5, 0]):
    print(f"  t={origin}: predicted {pred:.4f}, actual {target:.4f}")
