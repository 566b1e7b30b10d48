"""The output writers: each yields its file's text, and `atomic_write`
writes the chunks as they come."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from stockcast.config import ExperimentConfig
from stockcast.experiment import CellResult, RunResult
from stockcast.runner import (atomic_write, results_csv_text, run_errors_csv_text,
                              traces_json_text)


def make_cell(stock, seeds, mses, n_origins=5, h=3, model="MLP"):
    rng = np.random.default_rng(len(stock) + n_origins)
    runs = [RunResult(seed, mse, [0.5], 10 + np.arange(n_origins),
                      rng.random((n_origins, h)), rng.random((n_origins, h)))
            for seed, mse in zip(seeds, mses)]
    return CellResult(stock, model, 10, h, "direct", runs=runs)


def write_peak(path, cells) -> int:
    """The traced peak, in bytes, of writing run_errors.csv for `cells`."""
    tracemalloc.start()
    try:
        atomic_write(str(path), run_errors_csv_text(ExperimentConfig(stocks=("A",)), cells))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_errors_write_peak_does_not_grow_with_rows(tmp_path):
    # 40 and 160 cells of one 100-origin, 7-step run: 28,000 and 112,000 rows.
    # Built whole, the file's text would cost some 3 MB more at 4N than at N.
    small = [make_cell(f"S{i}", [0], [0.1], n_origins=100, h=7) for i in range(40)]
    large = [make_cell(f"S{i}", [0], [0.1], n_origins=100, h=7) for i in range(160)]
    write_peak(tmp_path / "warm.csv", small)  # first-call caches stay out of the comparison
    peak_small = write_peak(tmp_path / "small.csv", small)
    peak_large = write_peak(tmp_path / "large.csv", large)
    rows = [sum(not line.startswith("#") for line in (tmp_path / name).read_text().splitlines())
            - 1 for name in ("small.csv", "large.csv")]
    assert rows == [28_000, 112_000]
    assert peak_large < peak_small + 64 * 1024, (peak_small, peak_large)


def traces_built_whole(cfg, cells, all_traces):
    """traces.json as one json.dumps of the whole document."""
    records = []
    for cell in cells:
        if not cell.runs:
            continue
        runs = cell.runs if all_traces else [min(cell.runs, key=lambda r: r.test_mse)]
        records += [{"stock": cell.stock, "model": cell.model, "w": cell.w, "h": cell.h,
                     "strategy": cell.strategy, "seed": run.seed, "test_mse": run.test_mse,
                     "traces": [{"origin": o, "predictions": p, "targets": t}
                                for o, p, t in zip(run.origins.tolist(),
                                                   run.predictions.tolist(),
                                                   run.targets.tolist())]}
                    for run in runs]
    doc = {"config": cfg.echo_lines(), "records": records}
    return json.dumps(doc, sort_keys=True) + "\n", len(records)


FAILED = CellResult("BBB", "CNN", 10, 3, "direct", failed_runs=2)


@pytest.mark.parametrize("all_traces", [False, True])
@pytest.mark.parametrize("cells", [
    [],
    [FAILED],
    [make_cell("ÄCC", [0, 1], [0.2, 0.1]), FAILED,
     make_cell("CCC", [4, 5], [float("nan"), 0.3], model="GRU")],
], ids=["no_cells", "failed_only", "records_around_a_failed_cell"])
def test_traces_json_streams_the_whole_document_text(cells, all_traces):
    cfg = ExperimentConfig(stocks=("ÄCC", "BBB", "CCC"))
    chunks = list(traces_json_text(cfg, cells, all_traces))
    expected, n_records = traces_built_whole(cfg, cells, all_traces)
    assert "".join(chunks) == expected
    assert len(chunks) == n_records + 2  # the opening, one per record, the close


def test_results_rows_for_no_one_and_several_runs():
    # mean needs a run and the sample std two; n_runs counts the runs that finished
    cells = [make_cell("A", [], [], h=1), make_cell("B", [3], [0.25], h=1),
             make_cell("C", [3, 4, 5], [0.1, 0.2, 0.3], h=1)]
    cells[0].failed_runs = 2
    rows = "".join(results_csv_text(ExperimentConfig(stocks=("A",)), cells)).splitlines()
    assert rows[-4:] == [
        "stock,model,w,h,strategy,mean_mse,std_mse,n_runs,failed_runs",
        "A,MLP,10,1,direct,,,0,2",
        "B,MLP,10,1,direct,2.5000000000e-01,,1,0",
        "C,MLP,10,1,direct,2.0000000000e-01,1.0000000000e-01,3,0"]


def test_atomic_write_keeps_the_old_file_when_the_chunks_raise(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,bytes\n")

    def chunks():
        yield "a" * 100_000  # past the write buffer, so the temp file has content
        yield "b\n"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write(str(target), chunks())
    assert target.read_bytes() == b"old,bytes\n"
    assert os.listdir(tmp_path) == ["out.csv"]
