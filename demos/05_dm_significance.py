"""Are two forecasters distinguishable, or just differently seeded?

Trains an MLP and a CNN on the same symbol, aligns their rolling test
errors, and runs the Diebold-Mariano test with the Harvey small-sample
adjustment.  A negative statistic favors the first model; a large
p-value says the difference could be noise.
"""

import sys

import numpy as np

from stockcast.config import ExperimentConfig
from stockcast.evaluation import dm_test
from stockcast.experiment import TrainConfig, plan_grid, run_grid
from stockcast.runner import prepare_series

DATA_DIR = sys.argv[1] if len(sys.argv) > 1 else "./data"
SYMBOL = "ACC"
W = 5

cfg = ExperimentConfig(data_dir=DATA_DIR, stocks=(SYMBOL,), models=("MLP", "CNN"),
                       windows=(W,), n_runs=3, train=TrainConfig(epochs=40, seed=0))
series = prepare_series(cfg)
errors = {}
for cell in run_grid(series, plan_grid(series, cfg)):
    # mean absolute error per origin, averaged across the seeds
    per_seed = np.array([np.abs(run.predictions[:, 0] - run.targets[:, 0])
                         for run in cell.runs])
    errors[cell.model] = per_seed.mean(axis=0)
    print(f"{cell.model}: mean test MSE {cell.interval.mean:.3e} over 3 seeds")

report = dm_test(errors["MLP"], errors["CNN"], h=1)
better = "MLP" if report.statistic < 0 else "CNN"
print(f"\nDM statistic {report.statistic:+.3f}, p-value {report.p_value:.4f} "
      f"(T={report.n_obs}, {report.variant})")
alpha = 0.05
if report.p_value < alpha:
    print(f"significant at alpha={alpha}: {better} has lower squared error")
else:
    print(f"not significant at alpha={alpha}: the two are indistinguishable here")
