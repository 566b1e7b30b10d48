"""Desk-scale stock-price forecasting benchmark.

From-scratch differentiable models (MLP, 1-D CNN, GRU, LSTM), windowed
single-step and multi-step forecasting (direct and iterative), a seeded
multi-run experiment harness, and Diebold-Mariano significance testing.
"""

import os

# One BLAS thread per process.  `run` defaults to one worker process
# per CPU, so more would oversubscribe the CPUs.  BLAS reads these once, when numpy
# is first imported, so they are set before any import below; pool
# workers inherit them.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .evaluation import DmReport, dm_test, pairwise_dm_matrix
from .experiment import LossInterval, RunResult, TrainConfig, run_grid, train
from .ingest import TimeSeries, load_series, write_series
from .models import Model, build_cnn, build_gru, build_lstm, build_mlp, build_model
from .preprocess import Scaler, fit_scaler, inverse_scale, scale, split_by_date
from .windowing import FunctionModel, forecast, make_samples, rolling_test_forecast

__version__ = "0.1.0"
