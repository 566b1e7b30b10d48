import random
from datetime import date

import pytest

from stockcast.errors import DuplicateDate, EmptySeries, MalformedInput
from stockcast.ingest import load_series, write_series

from conftest import write_csv


def test_direct_parse(tmp_path):
    path = write_csv(tmp_path / "a.csv", [("2002-01-01", 100.0), ("2002-01-02", 101.5)])
    ts, dropped = load_series(path, "A")
    assert len(ts) == 2
    assert ts.values == (100.0, 101.5)
    assert ts.dates == (date(2002, 1, 1), date(2002, 1, 2))
    assert dropped == []


def test_out_of_order_rows_sorted(tmp_path):
    sorted_path = write_csv(tmp_path / "a.csv", [("2002-01-01", 1.0), ("2002-01-02", 2.0)])
    shuffled_path = write_csv(tmp_path / "b.csv", [("2002-01-02", 2.0), ("2002-01-01", 1.0)])
    assert load_series(sorted_path, "X")[0] == load_series(shuffled_path, "X")[0]


def test_nan_close_dropped(tmp_path):
    path = write_csv(tmp_path / "a.csv",
                     [("2002-01-01", 1.0), ("2002-01-02", "NaN"), ("2002-01-03", 3.0)])
    ts, dropped = load_series(path, "A")
    assert len(ts) == 2
    assert len(dropped) == 1
    assert dropped[0][1] == "non-positive or non-numeric close"


def test_bad_date_dropped(tmp_path):
    path = write_csv(tmp_path / "a.csv",
                     [("not-a-date", 1.0), ("2002-01-02", 2.0), ("2002-01-03", 3.0)])
    ts, dropped = load_series(path, "A")
    assert len(ts) == 2
    assert dropped == [(1, "unparsable date")]


@pytest.mark.parametrize("raw", ["20020101", "2002-W01-2", "2002W012", "2002-1-01"])
def test_only_yyyy_mm_dd_dates_parse(tmp_path, raw):
    # from Python 3.11 on, date.fromisoformat also reads the first three
    path = write_csv(tmp_path / "a.csv", [(raw, 1.0), ("2002-01-02", 2.0), ("2002-01-03", 3.0)])
    ts, dropped = load_series(path, "A")
    assert ts.dates == (date(2002, 1, 2), date(2002, 1, 3))
    assert dropped == [(1, "unparsable date")]


def test_byte_order_mark_parses_like_plain_file(tmp_path):
    plain = write_csv(tmp_path / "plain.csv",
                      [("2002-01-01", 1.0), ("2002-01-02", "NaN"), ("2002-01-03", 3.0)])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_series(bom, "A") == load_series(plain, "A")


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_series("/nonexistent/nope.csv", "A")


def test_empty_series(tmp_path):
    path = write_csv(tmp_path / "a.csv", [("2002-01-01", 1.0)])
    with pytest.raises(EmptySeries):
        load_series(path, "A")


def test_duplicate_date(tmp_path):
    path = write_csv(tmp_path / "a.csv", [("2002-01-01", 1.0), ("2002-01-01", 2.0)])
    with pytest.raises(DuplicateDate):
        load_series(path, "A")


def test_bad_header(tmp_path):
    path = write_csv(tmp_path / "a.csv", [("2002-01-01", 1.0)], header="time,price")
    with pytest.raises(MalformedInput):
        load_series(path, "A")


def test_extra_ohlc_columns_ignored(tmp_path):
    path = tmp_path / "a.csv"
    with open(path, "w") as f:
        f.write("date,open,close\n2002-01-01,9.0,1.0\n2002-01-02,9.0,2.0\n")
    ts, _ = load_series(path, "A")
    assert ts.values == (1.0, 2.0)


def test_load_idempotent_roundtrip(tmp_path):
    rows = [(f"2002-01-{d:02d}", 100.0 + 0.37 * d) for d in range(1, 20)]
    path = write_csv(tmp_path / "a.csv", rows)
    ts, _ = load_series(path, "A")
    out = tmp_path / "canonical.csv"
    write_series(ts, out)
    ts2, dropped2 = load_series(out, "A")
    assert ts2 == ts
    assert dropped2 == []


def test_row_order_never_matters(tmp_path):
    rows = [(f"2002-01-{d:02d}", float(d)) for d in range(1, 15)]
    reference = None
    rng = random.Random(3)
    for trial in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        path = write_csv(tmp_path / f"t{trial}.csv", shuffled)
        ts, _ = load_series(path, "A")
        if reference is None:
            reference = ts
        assert ts == reference
