"""Build DM comparison tables from a per-run errors CSV.

The error series for each (stock, model) is the per-(origin, step)
absolute error averaged across the run seeds, in (w, h, origin, step)
order.  Within a stock every model must carry the identical
(w, h, origin, step) keys, so both members of a pair align on the same
targets; different stocks may differ, since each DM test is per stock.
The long-run variance lag uses the largest horizon present in the file.

The file is read in blocks of `_CHUNK_ROWS` physical lines.  Each block
is parsed by `np.loadtxt` and cut down to compact columns at once: stock
and model become integer codes, looked up once per run of equal names,
w, h, origin and step become int32 when they fit, and the seed is
dropped.  Only those columns (32 bytes a row) outlive their block.  The
six key columns are packed into as few uint64 words as their ranges
allow (one, for a realistic file), and the sort that groups the seeds of
each key runs on those words.  A whole load peaks near 59 bytes per row
under `tracemalloc` (694,400 rows), plus a few MB for the block in hand.
A row that does not parse, or whose error is nan or infinite, is
rejected with its file line number; `dm_csv_text` also rejects a stock
whose aligned series is too short for the DM test (T <= max(h, 4)).
"""

from __future__ import annotations

import re
import warnings
from itertools import islice

import numpy as np

from .errors import MalformedInput
from .evaluation import dm_pairs, pairwise_dm_matrix
from .runner import RUN_ERRORS_COLUMNS

# an unsized str field would load every name as ""
_ROW = np.dtype([("stock", object), ("model", object), ("w", np.int64), ("h", np.int64),
                 ("seed", np.int64), ("origin", np.int64), ("step", np.int64),
                 ("abs_error_norm", np.float64)])
_CHUNK_ROWS = 1 << 15  # physical lines per np.loadtxt call
_INT32 = np.iinfo(np.int32)


def _read_header(f, path) -> int:
    """Consume the lines up to the header row; the line number after it."""
    for lineno, line in enumerate(f, 1):
        if line.split("#", 1)[0].strip():
            if tuple(line.rstrip("\n").split(",")) != RUN_ERRORS_COLUMNS:
                raise MalformedInput(
                    f"{path}: expected columns {list(RUN_ERRORS_COLUMNS)}, got {line.rstrip()!r}")
            return lineno + 1
    raise MalformedInput(f"{path}: no header row")


def _loadtxt(lines: list[str]) -> np.ndarray | None:
    """The rows of `lines`, or None if they hold no data row."""
    # as errors: older numpy parses an int field "2.5" as 2 with only a
    # DeprecationWarning, and np.loadtxt warns on input with no data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=_ROW, delimiter=",", quotechar='"', ndmin=1)
        except UserWarning:
            return None


def _finite_rows(lines: list[str]) -> np.ndarray | None:
    """The rows of `lines` (None if none); ValueError if an error is not finite."""
    rows = _loadtxt(lines)
    if rows is not None and not np.isfinite(rows["abs_error_norm"]).all():
        raise ValueError("non-finite abs_error_norm")
    return rows


def _parse_block(lines: list[str], path, first_line: int) -> np.ndarray | None:
    """The rows of one block, or None if it holds only comments and blanks."""
    try:
        return _finite_rows(lines)
    except (ValueError, Warning):
        pass
    # np.loadtxt reads a line of spaces, or spaces before a comment, as a
    # one-field row; empty it, so it is blank as it is before the header
    lines = [line if line.split("#", 1)[0].strip() else "\n" for line in lines]
    try:
        return _finite_rows(lines)
    except (ValueError, Warning):
        pass
    # numpy counts rows within the block; name the bad line of the file
    for i, line in enumerate(lines):
        where, text = f"{path}: line {first_line + i}", line.rstrip("\n")
        try:
            row = _loadtxt([line])
        except (ValueError, Warning) as exc:
            reason = re.sub(r" at row \d+", "", str(exc))  # the row within [line]
            raise MalformedInput(f"{where}: malformed data row {text!r}: {reason}") from None
        if row is not None and not np.isfinite(row["abs_error_norm"][0]):
            raise MalformedInput(f"{where}: non-finite abs_error_norm in {text!r}")
    raise MalformedInput(f"{path}: lines {first_line}-{first_line + len(lines) - 1}: "
                         f"malformed data rows")


def _encode(index: dict[str, int], names: np.ndarray) -> np.ndarray:
    """Each name's code; new names are numbered in order of first appearance."""
    # a block holds long runs of one name: look up only the first of each run
    heads = np.flatnonzero(np.r_[True, names[1:] != names[:-1]])
    codes = [index.setdefault(name, len(index)) for name in names[heads]]
    dtype = np.int32 if len(index) <= _INT32.max else np.int64
    return np.repeat(np.array(codes, dtype), np.diff(np.r_[heads, names.size]))


def _narrow(values: np.ndarray) -> np.ndarray:
    """A compact copy of an int64 column: int32 when every value fits."""
    fits = _INT32.min <= values.min() and values.max() <= _INT32.max
    return values.astype(np.int32 if fits else np.int64)


def _read_columns(path) -> tuple[list[str], list[str], list[np.ndarray]]:
    """Stock names, model names, and the stock code, model code, w, h,
    origin, step and error columns of every data row, in file order."""
    stocks: dict[str, int] = {}
    models: dict[str, int] = {}
    blocks: list[list[np.ndarray]] = [[] for _ in range(7)]
    with open(path, encoding="utf-8-sig") as f:
        lineno = _read_header(f, path)
        while lines := list(islice(f, _CHUNK_ROWS)):
            rows = _parse_block(lines, path, lineno)
            lineno += len(lines)
            if rows is None:
                continue
            # copies all: a view would keep the block's object array alive
            compact = (_encode(stocks, rows["stock"]), _encode(models, rows["model"]),
                       *(_narrow(rows[k]) for k in ("w", "h", "origin", "step")),
                       rows["abs_error_norm"].copy())
            for parts, column in zip(blocks, compact):
                parts.append(column)
            del rows, compact
    if not blocks[0]:
        raise MalformedInput(f"{path}: no data rows")
    columns = []  # one column at a time, so only one is ever held twice
    for parts in blocks:
        columns.append(np.concatenate(parts))
        parts.clear()
    return list(stocks), list(models), columns


def _pack(keys: list[np.ndarray]) -> list[np.ndarray]:
    """The key columns packed into as few uint64 words as their ranges
    allow, most significant first, so the words sort as the columns do."""
    words: list[np.ndarray] = []
    used = 0
    for column in keys:
        lo = int(column.min())
        bits = (int(column.max()) - lo).bit_length()
        # the offset from the minimum, modulo 2**64 as a column may be negative
        offset = column.astype(np.uint64)
        offset -= np.uint64(lo % 2**64)
        if not words or used + bits > 64:
            words.append(offset)
            used = bits
        elif bits:
            words[-1] <<= np.uint64(bits)
            words[-1] |= offset
            used += bits
    return words


def load_run_errors(path) -> tuple[dict[str, dict[str, np.ndarray]], int]:
    """Parse run_errors.csv into (stock -> model -> aligned error series,
    largest horizon in the file)."""
    stocks, models, columns = _read_columns(path)
    keys, errors = columns[:6], columns[6]
    h = max(1, int(keys[3].max()))
    words = _pack(keys)
    # stable, so the seeds of a key keep their file order
    order = np.lexsort(words[::-1])
    change = np.zeros(order.size - 1, dtype=bool)
    for word in words:
        ranked = word[order]
        change |= ranked[1:] != ranked[:-1]
    del ranked, words
    starts = np.flatnonzero(np.r_[True, change])
    del change
    cells = np.stack([column[order[starts]] for column in keys])
    del keys, columns
    # reduceat starts a sum from the slice's first value, np.mean from 0.0:
    # a 0.0 put in front of each slice makes both add in the same order
    sums = np.add.reduceat(np.insert(errors[order], starts, 0.0),
                           starts + np.arange(starts.size))
    means = sums / np.diff(np.r_[starts, order.size])
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
    return series, h


def dm_csv_text(errors_path, mode: str, loss: str = "squared",
                harvey: bool = True) -> str:
    """One `stock,pair` row per model pair, in the fixed report order."""
    pairs = dm_pairs(mode)
    series, h = load_run_errors(errors_path)
    lines = [
        "# stockcast DM comparison",
        f"# mode = {mode}",
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
        T = per_model[pairs[0][0]].size
        if T <= max(h, 4):
            raise MalformedInput(f"stock {stock}: T = {T} aligned errors per model; the DM "
                                 f"test needs more than max(h, 4) = {max(h, 4)}")
        for (a, b), report in pairwise_dm_matrix(per_model, h=h, mode=mode,
                                                 loss=loss, harvey=harvey):
            if report is None:
                lines.append(f"{stock},{a}-{b},,,{h},{per_model[a].size},degenerate")
            else:
                lines.append(
                    f"{stock},{a}-{b},{report.statistic:.10e},{report.p_value:.10e},"
                    f"{report.h},{report.n_obs},{report.variant}")
    return "\n".join(lines) + "\n"
