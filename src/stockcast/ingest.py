"""Loading and validation of daily closing-price CSV files.

Input contract: UTF-8 CSV, with or without a byte-order mark, with
header ``date,close``, one row per trading day, YYYY-MM-DD dates.  Extra
columns (open/high/low/volume) are ignored; only the close column is
modeled.  Rows with an unparsable date or a non-positive / non-numeric
close are dropped and reported rather than aborting, so long historical
files with sparse corruption remain usable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date

from .errors import DuplicateDate, EmptySeries, MalformedInput


@dataclass(frozen=True)
class TimeSeries:
    """A dated, ordered sequence of closing prices.

    Invariants: dates strictly increasing, values finite and positive,
    length >= 2.
    """

    symbol: str
    dates: tuple[date, ...]
    values: tuple[float, ...]

    def __len__(self):
        return len(self.values)


def _parse_close(raw: str) -> float | None:
    try:
        v = float(raw)
    except (TypeError, ValueError):
        return None
    if not math.isfinite(v) or v <= 0.0:
        return None
    return v


def parse_date(raw: str) -> date:
    """A YYYY-MM-DD date; from Python 3.11 on, date.fromisoformat also reads 20170101."""
    d = date.fromisoformat(raw)
    if d.isoformat() != raw:
        raise ValueError(f"not a YYYY-MM-DD date: {raw!r}")
    return d


def load_series(path, symbol: str) -> tuple[TimeSeries, list[tuple[int, str]]]:
    """Parse a close-price CSV into a canonical, date-sorted TimeSeries.

    Returns the series plus the dropped rows as (row, reason).  Raises
    FileNotFoundError, MalformedInput (bad header), EmptySeries (< 2
    valid rows) or DuplicateDate.
    """
    dropped: list[tuple[int, str]] = []
    rows: list[tuple[date, float]] = []
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInput(f"{path}: empty file, expected 'date,close' header")
        header = [h.strip().lower() for h in header]
        if len(header) < 2 or header[0] != "date" or "close" not in header:
            raise MalformedInput(f"{path}: header must contain 'date' and 'close'")
        close_col = header.index("close")
        for i, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                d = parse_date(row[0].strip())
            except (ValueError, IndexError):
                dropped.append((i, "unparsable date"))
                continue
            v = _parse_close(row[close_col].strip()) if len(row) > close_col else None
            if v is None:
                dropped.append((i, "non-positive or non-numeric close"))
                continue
            rows.append((d, v))

    if len(rows) < 2:
        raise EmptySeries(f"{path}: {len(rows)} valid rows, need at least 2")
    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DuplicateDate(f"{path}: duplicate date {d1.isoformat()}")
    ts = TimeSeries(
        symbol=symbol,
        dates=tuple(d for d, _ in rows),
        values=tuple(v for _, v in rows),
    )
    return ts, dropped


def write_series(ts: TimeSeries, path):
    """Emit the canonical CSV form (loading it back reproduces `ts`)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["date", "close"])
        for d, v in zip(ts.dates, ts.values):
            writer.writerow([d.isoformat(), repr(v)])
