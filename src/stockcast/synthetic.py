"""Deterministic synthetic close-price corpus.

A stand-in for a market data feed: any directory of ``date,close``
CSVs works with the harness, and this module writes a seeded corpus in
that shape for tests and demos.  One ``<SYMBOL>.csv`` per stock,
business days from 2002-01-01 to 2019-01-15,
geometric random walks with per-symbol drift/volatility and occasional
jump days so the series show trends and structural breaks.
"""

from __future__ import annotations

import os
from datetime import date, timedelta

import numpy as np

from .ingest import TimeSeries, write_series

SYMBOLS = (
    "ACC", "AXISBANK", "BHARTIARTL", "CIPLA", "HCLTECH",
    "HDFC", "INFY", "JSWSTEEL", "MARUTI", "ULTRACEMCO",
)

START = date(2002, 1, 1)
END = date(2019, 1, 15)


def business_days(start: date = START, end: date = END) -> list[date]:
    days = np.arange(start, end + timedelta(days=1), dtype="datetime64[D]")
    return days[np.is_busday(days)].tolist()


def make_series(symbol: str, seed: int = 2002) -> TimeSeries:
    """Seeded geometric random walk with drift and rare jump days."""
    dates = business_days()
    n = len(dates)
    idx = SYMBOLS.index(symbol) if symbol in SYMBOLS else 0
    rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
    # total growth capped so the post-cutoff test years extrapolate only
    # modestly beyond the train range
    drift = np.log(rng.uniform(1.5, 4.0)) / n
    vol = rng.uniform(0.006, 0.012)
    # rare large moves stand in for structural breaks
    jumps = rng.random(n) < 0.004
    steps = drift + vol * rng.standard_normal(n)
    steps[jumps] += rng.normal(0.0, 0.05, size=int(jumps.sum()))
    log_price = np.log(rng.uniform(50.0, 500.0)) + np.cumsum(steps)
    values = np.exp(log_price)
    return TimeSeries(symbol=symbol,
                      dates=tuple(dates),
                      values=tuple(float(v) for v in values))


def make_reference_corpus(data_dir, seed: int = 2002,
                          symbols=SYMBOLS) -> list[str]:
    """Write one canonical CSV per symbol; returns the paths."""
    os.makedirs(data_dir, exist_ok=True)
    paths = []
    for symbol in symbols:
        ts = make_series(symbol, seed=seed)
        path = os.path.join(data_dir, f"{symbol}.csv")
        write_series(ts, path)
        paths.append(path)
    return paths
