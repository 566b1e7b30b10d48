import tracemalloc
import warnings

import numpy as np
import pytest

from stockcast import dm_pipeline
from stockcast.dm_pipeline import load_run_errors
from stockcast.errors import MalformedInput
from stockcast.runner import RUN_ERRORS_COLUMNS

HEADER = ",".join(RUN_ERRORS_COLUMNS)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def small_blocks(monkeypatch):
    """Read in blocks of 7 physical lines, so small files span many blocks."""
    monkeypatch.setattr(dm_pipeline, "_CHUNK_ROWS", 7)


def data_rows(n_origins=5, models=("MLP", "CNN")):
    """Text rows of one stock, 2 seeds, h = 2; the error encodes the row."""
    return [f"AAA,{model},3,2,{seed},{origin},{step},0.{m}{seed}{origin}{step}1"
            for m, model in enumerate(models) for seed in range(2)
            for origin in range(n_origins) for step in (1, 2)]


def assert_series_equal(got, want):
    assert list(got[0]) == list(want[0]) and got[1] == want[1]
    for stock, per_model in want[0].items():
        assert list(got[0][stock]) == list(per_model)
        for model, values in per_model.items():
            assert np.array_equal(got[0][stock][model], values)


def test_load_matches_per_key_mean_oracle(tmp_path):
    assert_matches_per_key_mean_oracle(tmp_path)


def test_load_matches_per_key_mean_oracle_in_small_blocks(tmp_path, small_blocks):
    assert_matches_per_key_mean_oracle(tmp_path)


def assert_matches_per_key_mean_oracle(tmp_path):
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


def test_load_skips_comments_and_blanks_inside_and_at_block_edges(tmp_path, small_blocks):
    rows = data_rows()
    want = load_run_errors(write_lines(tmp_path / "clean.csv", [HEADER] + rows))
    body = list(rows)
    # body index i is at position i % 7 of block i // 7: comments and blank
    # lines open and close blocks and sit mid-block, and block 3 holds no data
    for i, line in [(0, "# opens block 0"), (6, "# closes block 0"), (7, ""),
                    (10, "# mid-block"), *((i, "# comment-only block") for i in range(21, 28)),
                    (34, "")]:
        body.insert(i, line)
    got = load_run_errors(write_lines(tmp_path / "commented.csv", [HEADER] + body))
    assert_series_equal(got, want)


def test_load_accepts_comment_only_tail(tmp_path, small_blocks):
    rows = data_rows()[:35]
    want = load_run_errors(write_lines(tmp_path / "clean.csv", [HEADER] + rows))
    # 35 data rows fill blocks 0-4, so the tail is a block of its own
    tail = ["# end of run", "", "# second tail comment"] * 4
    got = load_run_errors(write_lines(tmp_path / "tail.csv", [HEADER] + rows + tail))
    assert_series_equal(got, want)


def test_load_header_only_file_has_no_data_rows(tmp_path, small_blocks):
    path = write_lines(tmp_path / "errors.csv", ["# run", HEADER] + ["# no runs"] * 9)
    with pytest.raises(MalformedInput, match="no data rows"):
        load_run_errors(path)


@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("error", ["x", "nan", "-inf"])
def test_load_names_the_file_line_of_a_bad_row_in_a_later_block(tmp_path, small_blocks,
                                                                 error):
    body = ["# comment, so data rows and lines differ"] + data_rows()
    body[23] = body[23].rsplit(",", 1)[0] + "," + error
    path = write_lines(tmp_path / "errors.csv", [HEADER] + body)
    # the header is line 1, so body index 23 is line 25, in the fourth block
    with pytest.raises(MalformedInput, match=r": line 25: "):
        load_run_errors(path)


def test_load_peak_memory_per_row_is_bounded(tmp_path):
    # 2 stocks x 4 models x 5 seeds x 1,000 origins x 5 steps = 200,000 rows
    n_origins, h, n_rows = 1000, 5, 200_000
    errors = iter(np.random.default_rng(3).lognormal(-4.0, 1.0, n_rows).tolist())
    lines = [HEADER]
    for stock in ("AAA", "BBB"):
        for model in ("MLP", "CNN", "GRU", "LSTM"):
            for seed in range(5):
                for origin in range(30, 30 + n_origins):
                    prefix = f"{stock},{model},30,{h},{seed},{origin}"
                    lines += [f"{prefix},{step},{next(errors):.10e}" for step in range(1, h + 1)]
    assert len(lines) == n_rows + 1
    path = write_lines(tmp_path / "errors.csv", lines)
    del lines

    tracemalloc.start()
    try:
        series, _ = load_run_errors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(v.size for per_model in series.values() for v in per_model.values()) \
        == n_rows // 5
    # the per-row dict or object columns this replaced took about 292 B/row
    assert peak / n_rows <= 150


def test_load_keeps_keys_beyond_int32_in_order(tmp_path, small_blocks):
    # origins straddle 2**31, so some blocks narrow to int32 and others stay int64
    origins = range(2**31 - 4, 2**31 + 4)
    rng = np.random.default_rng(8)
    errors = {(model, seed, origin): float(rng.lognormal(-4.0, 1.0))
              for model in ("MLP", "CNN") for seed in range(2) for origin in origins}
    lines = [HEADER] + [f"AAA,{model},3,1,{seed},{origin},1,{err!r}"
                        for (model, seed, origin), err in errors.items()]
    series, h = load_run_errors(write_lines(tmp_path / "errors.csv", lines))
    assert h == 1
    for model in ("MLP", "CNN"):
        want = [np.mean([errors[model, seed, origin] for seed in range(2)]) for origin in origins]
        assert np.array_equal(series["AAA"][model], want)
