"""Direct versus iterative multi-step forecasting.

The direct strategy trains one model that emits all h future values in
a single call.  The iterative strategy trains a single-output model and
feeds its own predictions back in, h times.  Both are evaluated with
teacher-forced rolling origins: every origin's input window holds true
observed values.
"""

import sys
from dataclasses import replace

from stockcast.config import ExperimentConfig
from stockcast.experiment import TrainConfig, plan_grid, run_grid
from stockcast.runner import prepare_series

DATA_DIR = sys.argv[1] if len(sys.argv) > 1 else "./data"
SYMBOL = "HDFC"
W, H = 30, 7

cfg = ExperimentConfig(data_dir=DATA_DIR, stocks=(SYMBOL,), mode="multi", models=("MLP",),
                       windows=(W,), horizons=(H,), n_runs=3,
                       train=TrainConfig(epochs=40, batch_size=64, seed=0))
series = prepare_series(cfg)
_, test_n = series[SYMBOL]
print(f"{SYMBOL}: window {W}, horizon {H}, "
      f"{len(test_n) - W - H + 1} rolling test origins")

cells = {}
for strategy in ("direct", "iterative"):
    [cells[strategy]] = run_grid(series, plan_grid(series, replace(cfg, strategy=strategy)))
    mean, std, n_runs = cells[strategy].summary()
    print(f"  {strategy:9s} test MSE {mean:.3e} +/- {std:.3e} ({n_runs} seeds)")

print("\nper-step error growth for the best direct run:")
run = min(cells["direct"].runs, key=lambda r: r.test_mse)
step_mse = ((run.predictions - run.targets) ** 2).mean(axis=0)
for step, mse in enumerate(step_mse, start=1):
    print(f"  step {step}: MSE {mse:.3e}")
