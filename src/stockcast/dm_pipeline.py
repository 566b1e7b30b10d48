"""Build DM comparison tables from a per-run errors CSV.

The error series for each (stock, model) is the per-(origin, step)
absolute error averaged across the run seeds, in (w, h, origin, step)
order.  Within a stock every model must carry the identical
(w, h, origin, step) keys, so both members of a pair align on the same
targets; different stocks may differ, since each DM test is per stock.
The long-run variance lag uses the largest horizon present in the file.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import MalformedInput
from .evaluation import MULTI_STEP_PAIRS, SINGLE_STEP_PAIRS, pairwise_dm_matrix
from .runner import RUN_ERRORS_COLUMNS

# an unsized str field would load every name as ""
_ROW = np.dtype([("stock", object), ("model", object), ("w", np.int64), ("h", np.int64),
                 ("seed", np.int64), ("origin", np.int64), ("step", np.int64),
                 ("abs_error_norm", np.float64)])


def _next_line(f) -> str | None:
    """The next line that is neither blank nor a `#` comment, or None."""
    for line in iter(f.readline, ""):
        if line.split("#", 1)[0].strip():
            return line
    return None


def _read_rows(path) -> np.ndarray:
    with open(path, encoding="utf-8") as f:
        header = _next_line(f)
        if header is None:
            raise MalformedInput(f"{path}: no header row")
        if tuple(header.rstrip("\n").split(",")) != RUN_ERRORS_COLUMNS:
            raise MalformedInput(
                f"{path}: expected columns {list(RUN_ERRORS_COLUMNS)}, got {header.rstrip()!r}")
        # as errors: older numpy parses an int field "2.5" as 2 with only a
        # DeprecationWarning, and np.loadtxt warns on input with no data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return np.loadtxt(f, dtype=_ROW, delimiter=",", quotechar='"', ndmin=1)
            except UserWarning:
                raise MalformedInput(f"{path}: no data rows") from None
            except (ValueError, Warning) as exc:
                raise MalformedInput(f"{path}: malformed data row: {exc}") from None


def _codes(names: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Distinct names in order of first appearance, and each row's index."""
    distinct = list(dict.fromkeys(names))
    index = {name: i for i, name in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, names), np.int64, names.size)


def load_run_errors(path) -> tuple[dict[str, dict[str, np.ndarray]], int]:
    """Parse run_errors.csv into (stock -> model -> aligned error series,
    largest horizon in the file)."""
    rows = _read_rows(path)
    stocks, stock_code = _codes(rows["stock"])
    models, model_code = _codes(rows["model"])
    keys = np.stack([stock_code, model_code, rows["w"], rows["h"], rows["origin"],
                     rows["step"]])
    # stable, so the seeds of a key keep their file order
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    starts = np.flatnonzero(np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    # reduceat starts a sum from the slice's first value, np.mean from 0.0:
    # a 0.0 put in front of each slice makes both add in the same order
    sums = np.add.reduceat(np.insert(rows["abs_error_norm"][order], starts, 0.0),
                           starts + np.arange(starts.size))
    means = sums / np.diff(np.r_[starts, order.size])
    cells = keys[:, starts]
    bounds = np.flatnonzero(np.r_[True, (cells[:2, 1:] != cells[:2, :-1]).any(axis=0),
                                  True])

    series: dict[str, dict[str, np.ndarray]] = {}
    first: dict[str, tuple[str, np.ndarray]] = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        stock, model = stocks[cells[0, lo]], models[cells[1, lo]]
        first_model, first_keys = first.setdefault(stock, (model, cells[2:, lo:hi]))
        if not np.array_equal(cells[2:, lo:hi], first_keys):
            raise MalformedInput(
                f"{path}: stock {stock}: model {model} has other (w, h, origin, step) "
                f"keys than model {first_model}")
        series.setdefault(stock, {})[model] = means[lo:hi]
    return series, max(1, int(rows["h"].max()))


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
