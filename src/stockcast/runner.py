"""Experiment orchestration and bit-stable result emission.

All outputs are pure functions of (config bytes, data bytes): floats
are formatted with a fixed scientific notation, rows are emitted in
deterministic grid order, and every file is written atomically (temp
file + rename) with the materialized config echoed in `#` header lines.
"""

from __future__ import annotations

import json
import os
import secrets

import numpy as np

from .config import ExperimentConfig
from .errors import StockcastError
from .experiment import CellResult, run_grid
from .ingest import load_series
from .preprocess import fit_scaler, scale, split_by_date

RESULTS_CSV = "results.csv"
RUN_ERRORS_CSV = "run_errors.csv"
RUN_ERRORS_COLUMNS = ("stock", "model", "w", "h", "seed", "origin", "step", "abs_error_norm")
TRACES_JSON = "traces.json"


def _fmt(x: float) -> str:
    return f"{x:.10e}"


def atomic_write(path: str, text: str):
    """Write through a synced temp file of its own in the target's
    directory, so `path` holds either its old or its whole new text."""
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    # "x" creates the file or fails, with the mode a plain open() gives
    f = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def prepare_series(cfg: ExperimentConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Load, split and normalize every configured stock."""
    out = {}
    for symbol in cfg.stocks:
        ts, _ = load_series(cfg.stock_path(symbol), symbol)
        split = split_by_date(ts, cfg.cutoff)
        fit_values = ts.values if cfg.train.scaler_scope == "full" else split.train.values
        scaler = fit_scaler(fit_values)
        out[symbol] = (scale(scaler, split.train.values),
                       scale(scaler, split.test.values))
    return out


def _header(cfg: ExperimentConfig, extra: list[str] = ()) -> list[str]:
    lines = ["# stockcast results", "# config:"]
    lines += [f"#   {line}" for line in cfg.echo_lines()]
    lines += [f"# {line}" for line in extra]
    return lines


def results_csv_text(cfg: ExperimentConfig, cells: list[CellResult]) -> str:
    lines = _header(cfg, ["std is the sample standard deviation (n-1 denominator)"])
    lines.append("stock,model,w,h,strategy,mean_mse,std_mse,n_runs,failed_runs")
    for cell in cells:
        if len(cell.runs) >= 2:
            iv = cell.interval
            mean, std, n = _fmt(iv.mean), _fmt(iv.std), iv.n_runs
        elif len(cell.runs) == 1:
            mean, std, n = _fmt(cell.runs[0].test_mse), "", 1
        else:
            mean, std, n = "", "", 0
        lines.append(f"{cell.stock},{cell.model},{cell.w},{cell.h},{cell.strategy},"
                     f"{mean},{std},{n},{cell.failed_runs}")
    return "\n".join(lines) + "\n"


def run_errors_csv_text(cfg: ExperimentConfig, cells: list[CellResult]) -> str:
    lines = _header(cfg)
    lines.append(",".join(RUN_ERRORS_COLUMNS))
    for cell in cells:
        for run in cell.runs:
            prefix = f"{cell.stock},{cell.model},{cell.w},{cell.h},{run.seed}"
            errors = np.abs(run.predictions - run.targets).tolist()
            for origin, row in zip(run.origins.tolist(), errors):
                lines += [f"{prefix},{origin},{step},{_fmt(err)}"
                          for step, err in enumerate(row, start=1)]
    return "\n".join(lines) + "\n"


def traces_json_text(cfg: ExperimentConfig, cells: list[CellResult],
                     all_traces: bool = False) -> str:
    records = []
    for cell in cells:
        if not cell.runs:
            continue
        runs = cell.runs if all_traces else [min(cell.runs, key=lambda r: r.test_mse)]
        for run in runs:
            records.append({
                "stock": cell.stock,
                "model": cell.model,
                "w": cell.w,
                "h": cell.h,
                "strategy": cell.strategy,
                "seed": run.seed,
                "test_mse": run.test_mse,
                "traces": [
                    {"origin": origin, "predictions": predictions, "targets": targets}
                    for origin, predictions, targets in zip(
                        run.origins.tolist(), run.predictions.tolist(),
                        run.targets.tolist())],
            })
    doc = {"config": cfg.echo_lines(), "records": records}
    return json.dumps(doc, sort_keys=True) + "\n"


def execute(cfg: ExperimentConfig, jobs: int = 1, all_traces: bool = False) -> int:
    """Run the configured grid and emit the three output files.

    Returns the process exit code: 0 iff every cell completed all runs.
    """
    series = prepare_series(cfg)
    cells = run_grid(series, list(cfg.models), list(cfg.windows), list(cfg.horizons),
                     cfg.train, cfg.n_runs, cfg.strategy, jobs=jobs)
    os.makedirs(cfg.output_dir, exist_ok=True)
    atomic_write(os.path.join(cfg.output_dir, RESULTS_CSV),
                 results_csv_text(cfg, cells))
    atomic_write(os.path.join(cfg.output_dir, RUN_ERRORS_CSV),
                 run_errors_csv_text(cfg, cells))
    atomic_write(os.path.join(cfg.output_dir, TRACES_JSON),
                 traces_json_text(cfg, cells, all_traces))
    failed = [c for c in cells if c.failed_runs or not c.runs]
    if failed:
        for cell in failed:
            print(f"FAILED {cell.stock} {cell.model} w={cell.w} h={cell.h}: "
                  f"{cell.failed_runs} divergent run(s)")
        return 1
    return 0
