"""Experiment orchestration and bit-stable result emission.

All outputs are pure functions of (config bytes, data bytes): floats
are formatted with a fixed scientific notation, rows are emitted in
deterministic grid order, and every file is streamed to a temp file and
renamed (an atomic write), with the materialized config echoed in `#` header lines.
"""

from __future__ import annotations

import json
import os
import secrets

import numpy as np

from .config import ExperimentConfig
from .experiment import CellResult, plan_grid, run_grid
from .ingest import load_series
from .preprocess import fit_scaler, scale, split_by_date

RUN_ERRORS_COLUMNS = ("stock", "model", "w", "h", "seed", "origin", "step", "abs_error_norm")


def atomic_write(path: str, chunks):
    """Write the strings `chunks` yields, as they come, through a synced
    temp file of its own in the target's directory, so `path` holds
    either its old or its whole new text, even if `chunks` raises; on
    POSIX the directory is synced next, so a crash cannot undo the rename."""
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    # "x" creates the file or fails, with the mode a plain open() gives
    f = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    if os.name == "posix":
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def prepare_series(cfg: ExperimentConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Load, split and normalize every configured stock."""
    out = {}
    for symbol in cfg.stocks:
        ts, _ = load_series(cfg.stock_path(symbol), symbol)
        train, test = split_by_date(ts, cfg.cutoff)
        scaler = fit_scaler(ts.values if cfg.train.scaler_scope == "full" else train.values)
        out[symbol] = (scale(scaler, train.values), scale(scaler, test.values))
    return out


def _header(cfg: ExperimentConfig, extra: list[str] = ()):
    yield "# stockcast results\n# config:\n"
    yield from (f"#   {line}\n" for line in cfg.echo_lines())
    yield from (f"# {line}\n" for line in extra)


def results_csv_text(cfg: ExperimentConfig, cells: list[CellResult]):
    """Yield results.csv: its header, then one row per cell."""
    yield from _header(cfg, ["std is the sample standard deviation (n-1 denominator)"])
    yield "stock,model,w,h,strategy,mean_mse,std_mse,n_runs,failed_runs\n"
    for cell in cells:
        errors = [run.test_mse for run in cell.runs]
        mean = f"{np.mean(errors):.10e}" if errors else ""
        std = f"{np.std(errors, ddof=1):.10e}" if len(errors) >= 2 else ""
        yield (f"{cell.stock},{cell.model},{cell.w},{cell.h},{cell.strategy},"
               f"{mean},{std},{len(errors)},{cell.failed_runs}\n")


def run_errors_csv_text(cfg: ExperimentConfig, cells: list[CellResult]):
    """Yield run_errors.csv: its header, then a block of step rows per (run, origin)."""
    yield from _header(cfg)
    yield ",".join(RUN_ERRORS_COLUMNS) + "\n"
    for cell in cells:
        for run in cell.runs:
            prefix = f"{cell.stock},{cell.model},{cell.w},{cell.h},{run.seed}"
            errors = np.abs(run.predictions - run.targets).tolist()
            for origin, row in zip(run.origins.tolist(), errors):
                yield "".join(f"{prefix},{origin},{step},{err:.10e}\n"
                              for step, err in enumerate(row, start=1))


def traces_json_text(cfg: ExperimentConfig, cells: list[CellResult],
                     all_traces: bool = False):
    """Yield json.dumps({"config": ..., "records": [...]}, sort_keys=True) and a
    newline, a record at a time: each cell's best run, or every run if `all_traces`."""
    yield f'{{"config": {json.dumps(cfg.echo_lines())}, "records": ['
    separator = ""
    for cell in cells:
        if not cell.runs:
            continue
        runs = cell.runs if all_traces else [min(cell.runs, key=lambda r: r.test_mse)]
        for run in runs:
            yield separator + json.dumps({
                "stock": cell.stock, "model": cell.model, "w": cell.w, "h": cell.h,
                "strategy": cell.strategy, "seed": run.seed, "test_mse": run.test_mse,
                "traces": [
                    {"origin": origin, "predictions": predictions, "targets": targets}
                    for origin, predictions, targets in zip(
                        run.origins.tolist(), run.predictions.tolist(),
                        run.targets.tolist())],
            }, sort_keys=True)
            separator = ", "
    yield "]}\n"


def execute(cfg: ExperimentConfig, jobs: int = 1, all_traces: bool = False) -> int:
    """Run the configured grid and emit the three output files.

    Returns the process exit code: 0 iff every cell completed all runs.
    """
    series = prepare_series(cfg)
    # the plan is built and checked once, so a grid that cannot be built, or an
    # unusable output_dir, fails here: before output_dir exists, not after hours of training
    plan = plan_grid(series, cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    cells = run_grid(series, plan, jobs=jobs)
    for name, chunks in (("results.csv", results_csv_text(cfg, cells)),
                         ("run_errors.csv", run_errors_csv_text(cfg, cells)),
                         ("traces.json", traces_json_text(cfg, cells, all_traces))):
        atomic_write(os.path.join(cfg.output_dir, name), chunks)
    failed = [c for c in cells if c.failed_runs or not c.runs]
    for cell in failed:
        print(f"FAILED {cell.stock} {cell.model} w={cell.w} h={cell.h}: "
              f"{cell.failed_runs} divergent run(s)")
    return 1 if failed else 0
