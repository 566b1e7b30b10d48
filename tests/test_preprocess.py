from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stockcast.config import ExperimentConfig
from stockcast.errors import DegenerateRange, EmptyPartition
from stockcast.experiment import TrainConfig
from stockcast.ingest import TimeSeries, write_series
from stockcast.preprocess import Scaler, fit_scaler, inverse_scale, scale, split_by_date
from stockcast.runner import prepare_series


def series(values, start=date(2002, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return TimeSeries("T", dates, tuple(float(v) for v in values))


@pytest.mark.parametrize("scope", ["train", "full"])
def test_prepare_series_scaler_scope(tmp_path, scope):
    # a rising series: the test side lies above every training value
    write_series(series(range(1, 21)), tmp_path / "AAA.csv")
    cfg = ExperimentConfig(data_dir=str(tmp_path), stocks=("AAA",), cutoff=date(2002, 1, 11),
                           train=TrainConfig(scaler_scope=scope))
    train, test = prepare_series(cfg)["AAA"]
    fitted = train if scope == "train" else np.concatenate([train, test])
    assert (fitted.min(), fitted.max()) == (0.0, 1.0)
    if scope == "train":
        assert test.min() > 1.0
    else:
        assert train.max() < 1.0


def test_split_middle():
    ts = series(range(1, 11))
    cutoff = date(2002, 1, 5)
    train, test = split_by_date(ts, cutoff)
    assert len(train) == 5
    assert len(test) == 5
    assert train.values + test.values == ts.values
    assert all(d <= cutoff for d in train.dates)
    assert all(d > cutoff for d in test.dates)


def test_split_cutoff_before_first():
    with pytest.raises(EmptyPartition):
        split_by_date(series(range(1, 11)), date(2001, 12, 31))


def test_split_cutoff_at_last():
    with pytest.raises(EmptyPartition):
        split_by_date(series(range(1, 11)), date(2002, 1, 10))


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=70))
def test_split_partitions_losslessly(n, offset):
    ts = series(range(n))
    cutoff = date(2002, 1, 1) + timedelta(days=offset)
    try:
        train, test = split_by_date(ts, cutoff)
    except EmptyPartition:
        assert cutoff < ts.dates[0] or cutoff >= ts.dates[-1]
        return
    assert len(train) + len(test) == n
    assert train.values + test.values == ts.values


def test_fit_scaler():
    s = fit_scaler([2, 4, 6])
    assert (s.min, s.max) == (2, 6)


def test_fit_scaler_degenerate():
    with pytest.raises(DegenerateRange):
        fit_scaler([5, 5, 5])


def test_fit_scaler_identity():
    s = fit_scaler([0, 1])
    assert (s.min, s.max) == (0, 1)


def test_scale_basic():
    s = Scaler(2, 6)
    assert np.allclose(scale(s, [2, 4, 6]), [0, 0.5, 1])


def test_scale_extrapolates():
    assert np.allclose(scale(Scaler(2, 6), [8]), [1.5])


def test_scale_identity_scaler():
    assert np.allclose(scale(Scaler(0, 1), [0.3]), [0.3])


def test_inverse_scale_basic():
    s = Scaler(2, 6)
    assert np.allclose(inverse_scale(s, [0.5]), [4])
    assert np.allclose(inverse_scale(s, [1.5]), [8])


@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=1e-9, max_value=1e6),
    st.lists(st.floats(min_value=-2.0, max_value=3.0), min_size=1, max_size=50),
)
def test_scale_roundtrip_identity(lo, width, units):
    # probe points live at the scaler's own scale (extrapolation included);
    # points many orders of magnitude below `lo` would only measure
    # floating-point cancellation, not the transform
    s = Scaler(lo, lo + width)
    x = lo + width * np.asarray(units)
    rel = np.abs(inverse_scale(s, scale(s, x)) - x) / np.maximum(np.abs(x), 1.0)
    assert rel.max() < 1e-12
    y = scale(s, x)
    # inverse_scale lands at magnitude ~|lo|, so rounding there shows up in
    # the normalized domain at magnitude |lo| / width
    floor2 = max(abs(lo) / width, 1.0)
    rel2 = np.abs(scale(s, inverse_scale(s, y)) - y) / np.maximum(np.abs(y), floor2)
    assert rel2.max() < 1e-12


def test_scale_strictly_monotone():
    s = fit_scaler([3.0, 9.0])
    x = np.linspace(-5, 15, 101)
    assert np.all(np.diff(scale(s, x)) > 0)
