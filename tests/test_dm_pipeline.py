import warnings

import numpy as np
import pytest

from stockcast.dm_pipeline import load_run_errors
from stockcast.errors import MalformedInput
from stockcast.runner import RUN_ERRORS_COLUMNS

HEADER = ",".join(RUN_ERRORS_COLUMNS)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_matches_per_key_mean_oracle(tmp_path):
    # 9 seeds, so np.mean sums through its unrolled (pairwise) loop; two
    # stocks whose origin ranges differ; rows shuffled
    rng = np.random.default_rng(17)
    origins = {"AAA": range(30, 42), "BBB": range(7, 26)}
    rows = []
    for stock, stock_origins in origins.items():
        for model in ("MLP", "CNN", "GRU", "LSTM"):
            for seed in range(9):
                for origin in stock_origins:
                    for step in (1, 2, 3):
                        err = float(rng.lognormal(-4.0, 1.5))
                        rows.append((stock, model, 5, 3, seed, origin, step, err))
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    path = write_lines(tmp_path / "errors.csv",
                       ["# comment", HEADER] + [",".join(map(str, r)) for r in shuffled])

    series, h = load_run_errors(path)

    grouped = {}
    for stock, model, w, hh, seed, origin, step, err in shuffled:
        grouped.setdefault(stock, {}).setdefault(model, {}).setdefault(
            (w, hh, origin, step), []).append(err)
    expected = {stock: {model: np.array([np.mean(cells[k]) for k in sorted(cells)])
                        for model, cells in per_model.items()}
                for stock, per_model in grouped.items()}
    assert h == 3
    assert list(series) == list(expected)
    for stock, per_model in expected.items():
        assert sorted(series[stock]) == sorted(per_model)
        for model, values in per_model.items():
            assert np.array_equal(series[stock][model], values)


# "default": what users get, where pytest alone would turn warnings into errors
@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("row", [
    "AAA,MLP,3,1,0,5,1",
    "AAA,MLP,3,1,0,5,1,0.01,7",
    "AAA,MLP,3,1,0,2.5,1,0.01",
    "AAA,MLP,3,1,0,5,1,x",
    "AAA,MLP,3,1,s0,5,1,0.01",
], ids=["7-fields", "9-fields", "fractional-origin", "non-numeric-error",
        "non-integer-seed"])
def test_load_rejects_malformed_rows(tmp_path, row):
    path = write_lines(tmp_path / "errors.csv",
                       [HEADER, "AAA,MLP,3,1,0,4,1,0.02", row])
    with pytest.raises(MalformedInput):
        load_run_errors(path)


@pytest.mark.filterwarnings("default")
def test_load_rejects_rows_numpy_only_warns_about(tmp_path, monkeypatch):
    # older numpy parses an int field "2.5" as 2 and only warns
    real_loadtxt = np.loadtxt

    def warn_and_truncate(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return real_loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warn_and_truncate)
    path = write_lines(tmp_path / "errors.csv", [HEADER, "AAA,MLP,3,1,0,2,1,0.02"])
    with pytest.raises(MalformedInput):
        load_run_errors(path)
