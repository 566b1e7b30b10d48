"""Build DM comparison tables from a per-run errors CSV.

The error series for each (stock, model) is the per-(origin, step)
absolute error averaged across the run seeds, concatenated in
(w, h, origin, step) order; both members of a pair therefore align on
identical targets.  The long-run variance lag uses the largest horizon
present in the file.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import MalformedInput
from .evaluation import MULTI_STEP_PAIRS, SINGLE_STEP_PAIRS, pairwise_dm_matrix

_COLUMNS = ["stock", "model", "w", "h", "seed", "origin", "step", "abs_error_norm"]


def load_run_errors(path) -> tuple[dict[str, dict[str, np.ndarray]], int]:
    """Parse run_errors.csv into (stock -> model -> aligned error series,
    largest horizon in the file)."""
    rows = []
    with open(path, encoding="utf-8") as f:
        reader = csv.reader(line for line in f if not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInput(f"{path}: no header row")
        if header != _COLUMNS:
            raise MalformedInput(f"{path}: expected columns {_COLUMNS}, got {header}")
        for row in reader:
            if len(row) != len(_COLUMNS):
                raise MalformedInput(f"{path}: bad row {row!r}")
            rows.append(row)
    if not rows:
        raise MalformedInput(f"{path}: no data rows")

    # stock -> model -> (w, h, origin, step) -> per-seed errors
    stock_order: list[str] = []
    grouped: dict[str, dict[str, dict[tuple, list[float]]]] = {}
    max_h = 1
    for stock, model, w, h, seed, origin, step, err in rows:
        try:
            key = (int(w), int(h), int(origin), int(step))
            value = float(err)
            max_h = max(max_h, int(h))
        except ValueError:
            raise MalformedInput(f"{path}: non-numeric fields in row for {stock}/{model}")
        if stock not in grouped:
            grouped[stock] = {}
            stock_order.append(stock)
        grouped[stock].setdefault(model, {}).setdefault(key, []).append(value)

    series: dict[str, dict[str, np.ndarray]] = {}
    for stock in stock_order:
        series[stock] = {}
        for model, cells in grouped[stock].items():
            keys = sorted(cells)
            series[stock][model] = np.array(
                [float(np.mean(cells[k])) for k in keys], dtype=np.float64)
    lengths = {a.size for models in series.values() for a in models.values()}
    if len(lengths) > 1:
        raise MalformedInput(f"{path}: unaligned error series lengths {sorted(lengths)}")
    return series, max_h


def dm_csv_text(errors_path, mode: str, alpha: float, loss: str = "squared",
                harvey: bool = True) -> str:
    """One `stock,pair` row per model pair, in the fixed report order."""
    series, h = load_run_errors(errors_path)
    pairs = SINGLE_STEP_PAIRS if mode == "single" else MULTI_STEP_PAIRS
    lines = [
        "# stockcast DM comparison",
        f"# mode = {mode}",
        f"# alpha = {alpha!r}",
        f"# loss = {loss}",
        f"# variant = {'harvey' if harvey else 'plain'}",
        f"# h = {h}",
        "stock,pair,statistic,p_value,h,T,variant",
    ]
    for stock, per_model in series.items():
        missing = [m for pair in pairs for m in pair if m not in per_model]
        if missing:
            raise MalformedInput(
                f"stock {stock}: missing error series for {sorted(set(missing))}")
        for (a, b), report in pairwise_dm_matrix(per_model, h=h, mode=mode,
                                                 loss=loss, harvey=harvey):
            if report is None:
                lines.append(f"{stock},{a}-{b},,,{h},{per_model[a].size},degenerate")
            else:
                lines.append(
                    f"{stock},{a}-{b},{report.statistic:.10e},{report.p_value:.10e},"
                    f"{report.h},{report.n_obs},{report.variant}")
    return "\n".join(lines) + "\n"
