"""Direct versus iterative multi-step forecasting.

The direct strategy trains one model that emits all h future values in
a single call.  The iterative strategy trains a single-output model and
feeds its own predictions back in, h times.  Both are evaluated with
teacher-forced rolling origins: every origin's input window holds true
observed values.
"""

import os
import sys
from datetime import date

from stockcast.experiment import TrainConfig, run_grid
from stockcast.ingest import load_series
from stockcast.preprocess import fit_scaler, scale, split_by_date

DATA_DIR = sys.argv[1] if len(sys.argv) > 1 else "./data"
SYMBOL = "HDFC"
W, H = 30, 7

ts, _ = load_series(os.path.join(DATA_DIR, f"{SYMBOL}.csv"), SYMBOL)
split = split_by_date(ts, date(2017, 1, 1))
scaler = fit_scaler(split.train.values)
train_n = scale(scaler, split.train.values)
test_n = scale(scaler, split.test.values)
print(f"{SYMBOL}: window {W}, horizon {H}, "
      f"{len(test_n) - W - H + 1} rolling test origins")

cfg = TrainConfig(epochs=40, batch_size=64, seed=0)
cells = {}
for strategy in ("direct", "iterative"):
    [cells[strategy]] = run_grid({SYMBOL: (train_n, test_n)}, ["MLP"], [W], [H],
                                 cfg, n_runs=3, strategy=strategy)
    iv = cells[strategy].interval
    print(f"  {strategy:9s} test MSE {iv.mean:.3e} +/- {iv.std:.3e} "
          f"({iv.n_runs} seeds)")

print("\nper-step error growth for the best direct run:")
run = min(cells["direct"].runs, key=lambda r: r.test_mse)
step_mse = ((run.predictions - run.targets) ** 2).mean(axis=0)
for step, mse in enumerate(step_mse, start=1):
    print(f"  step {step}: MSE {mse:.3e}")
