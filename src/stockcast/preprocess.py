"""Min-max normalization to [0,1] and the date-based train/test split."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DegenerateRange, EmptyPartition
from .ingest import TimeSeries


@dataclass(frozen=True)
class Scaler:
    """Affine map x -> (x - min) / (max - min); requires max > min."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise DegenerateRange(f"scaler range [{self.min}, {self.max}] is degenerate")


def split_by_date(ts: TimeSeries, cutoff: date) -> tuple[TimeSeries, TimeSeries]:
    """Train holds all points dated <= cutoff, test holds the rest."""
    n_train = sum(1 for d in ts.dates if d <= cutoff)
    if n_train == 0 or n_train == len(ts.dates):
        raise EmptyPartition(
            f"cutoff {cutoff.isoformat()} leaves {n_train} train / "
            f"{len(ts.dates) - n_train} test points"
        )
    return (TimeSeries(ts.symbol, ts.dates[:n_train], ts.values[:n_train]),
            TimeSeries(ts.symbol, ts.dates[n_train:], ts.values[n_train:]))


def fit_scaler(train_values) -> Scaler:
    """Fit min/max on a value sequence of length >= 2."""
    values = np.asarray(train_values, dtype=np.float64)
    if values.size < 2:
        raise DegenerateRange("need at least 2 values to fit a scaler")
    return Scaler(min=float(values.min()), max=float(values.max()))


def scale(s: Scaler, x) -> np.ndarray:
    """Normalize; values outside the fit range map outside [0,1]."""
    return (np.asarray(x, dtype=np.float64) - s.min) / (s.max - s.min)


def inverse_scale(s: Scaler, y) -> np.ndarray:
    return np.asarray(y, dtype=np.float64) * (s.max - s.min) + s.min
