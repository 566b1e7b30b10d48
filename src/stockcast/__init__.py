"""Desk-scale stock-price forecasting benchmark.

From-scratch differentiable models (MLP, 1-D CNN, GRU, LSTM), windowed
single-step and multi-step forecasting (direct and iterative), a seeded
multi-run experiment harness, and Diebold-Mariano significance testing.

The DM names (`DmReport`, `dm_test`, `pairwise_dm_matrix`) load
`stockcast.evaluation` on first use, so a `run` never compiles it.
"""

import ctypes
import glob
import os

# One BLAS thread per process.  `run` defaults to one worker process
# per CPU, so more would oversubscribe the CPUs.  BLAS reads these once, when numpy
# is first imported, so they are set before any import below; pool
# workers inherit them.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

# Fixed glibc malloc thresholds.  glibc's defaults move the mmap threshold
# as large blocks are freed and trim the heap top, so a training step's
# multi-MB arrays are unmapped or trimmed and then faulted in again, and
# each new model's arrays get fresh pages.  Fixed thresholds keep freed
# memory in the heap for the next step and model; RSS stays at its
# high-water mark until exit.  Forked pool workers inherit the setting,
# others set it again on import.  Other C libraries keep their defaults.
try:
    _GLIBC = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
except (AttributeError, ValueError, OSError):  # no confstr, name or value
    _GLIBC = False
if _GLIBC:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_TRIM_THRESHOLD = -1, M_MMAP_THRESHOLD = -3 (<malloc.h>)
    if not (_mallopt(-1, 256 << 20) == 1 and _mallopt(-3, 32 << 20) == 1):
        import warnings

        warnings.warn("mallopt refused a malloc threshold; freed memory may be re-faulted",
                      RuntimeWarning)

import numpy

from .experiment import LossInterval, RunResult, TrainConfig, plan_grid, run_grid, train
from .ingest import TimeSeries, load_series, write_series
from .models import Model, build_cnn, build_gru, build_lstm, build_mlp, build_model
from .preprocess import Scaler, fit_scaler, inverse_scale, scale, split_by_date
from .windowing import FunctionModel, forecast, make_samples, rolling_test_forecast

# numpy's bundled OpenBLAS, or None.  One loaded by a numpy imported before
# stockcast read no thread count above, so it is pinned here (numpy 2.x, 1.x).
_LIBS = glob.glob(os.path.join(numpy.__path__[0], os.pardir, "numpy.libs", "*openblas*"))
_OPENBLAS = ctypes.CDLL(_LIBS[0]) if _LIBS else None
for _name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
    if hasattr(_OPENBLAS, _name):
        _set_threads = getattr(_OPENBLAS, _name)
        _set_threads.argtypes, _set_threads.restype = (ctypes.c_int,), None
        _set_threads(1)
        break

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("DmReport", "dm_test", "pairwise_dm_matrix"):
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
