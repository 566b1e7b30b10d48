"""Flat key/value experiment config files.

Format: one ``key = value`` per line, ``#`` comments, unknown keys
rejected by name.  Every default is materialized at parse time so the
echoed config in result headers is self-describing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from datetime import date

from .errors import MissingDataFile, ParseError
from .experiment import TrainConfig

SINGLE_STEP_WINDOWS = (3, 5, 7, 9, 11, 13, 15)
MULTI_STEP_WINDOWS = (30, 60, 90)
MULTI_STEP_HORIZONS = (7, 14, 21, 28)
ALL_MODELS = ("MLP", "CNN", "GRU", "LSTM")

_KNOWN_KEYS = {
    "data_dir", "stocks", "cutoff", "mode", "windows", "horizons", "strategy",
    "models", "epochs", "batch_size", "lr", "seed", "shuffle", "origin_stride",
    "scaler_scope", "n_runs", "output_dir",
}


@dataclass
class ExperimentConfig:
    data_dir: str = "./data"
    stocks: tuple[str, ...] = ()
    cutoff: date = date(2017, 1, 1)
    mode: str = "single"
    windows: tuple[int, ...] = ()
    horizons: tuple[int, ...] = (1,)
    strategy: str = "direct"
    models: tuple[str, ...] = ALL_MODELS
    n_runs: int = 5
    output_dir: str = "./results"
    train: TrainConfig = field(default_factory=TrainConfig)

    def stock_path(self, symbol: str) -> str:
        return os.path.join(self.data_dir, f"{symbol}.csv")

    def echo_lines(self) -> list[str]:
        """Fully materialized key=value lines for output headers."""
        return [
            f"data_dir = {self.data_dir}",
            f"stocks = {','.join(self.stocks)}",
            f"cutoff = {self.cutoff.isoformat()}",
            f"mode = {self.mode}",
            f"windows = {','.join(str(w) for w in self.windows)}",
            f"horizons = {','.join(str(h) for h in self.horizons)}",
            f"strategy = {self.strategy}",
            f"models = {','.join(self.models)}",
            f"n_runs = {self.n_runs}",
            f"output_dir = {self.output_dir}",
            f"epochs = {self.train.epochs}",
            f"batch_size = {self.train.batch_size}",
            f"lr = {self.train.lr!r}",
            f"seed = {self.train.seed}",
            f"shuffle = {str(self.train.shuffle).lower()}",
            f"origin_stride = {self.train.origin_stride}",
            f"scaler_scope = {self.train.scaler_scope}",
        ]


def _parse_int_list(raw: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ParseError(f"field {key!r}: expected comma-separated integers, got {raw!r}")


def _check_no_repeats(key: str, values: tuple):
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ParseError(f"field {key!r}: must not repeat {value}")


def parse_config(path) -> ExperimentConfig:
    """Parse and validate; all defaults materialized."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(f"line {lineno}: expected 'key = value', got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in _KNOWN_KEYS:
                raise ParseError(f"line {lineno}: unknown field {key!r}")
            if key in raw:
                raise ParseError(f"line {lineno}: duplicate field {key!r}")
            raw[key] = value

    if "stocks" not in raw or not raw["stocks"].strip():
        raise ParseError("field 'stocks' is required")
    stocks = tuple(s.strip().upper() for s in raw["stocks"].split(",") if s.strip())
    _check_no_repeats("stocks", stocks)

    mode = raw.get("mode", "single")
    if mode not in ("single", "multi"):
        raise ParseError(f"field 'mode': must be 'single' or 'multi', got {mode!r}")

    if "windows" in raw:
        windows = _parse_int_list(raw["windows"], "windows")
    else:
        windows = SINGLE_STEP_WINDOWS if mode == "single" else MULTI_STEP_WINDOWS
    if "horizons" in raw:
        horizons = _parse_int_list(raw["horizons"], "horizons")
    elif mode == "multi":
        horizons = MULTI_STEP_HORIZONS
    else:
        horizons = (1,)
    if mode == "single" and horizons != (1,):
        raise ParseError("field 'horizons': single-step mode forces horizon 1")
    if not windows or not horizons:
        raise ParseError("window/horizon grids must be non-empty")
    for key, grid in (("windows", windows), ("horizons", horizons)):
        if min(grid) < 1:
            raise ParseError(f"field {key!r}: must be >= 1, got {min(grid)}")
        _check_no_repeats(key, grid)

    strategy = raw.get("strategy", "direct")
    if strategy not in ("direct", "iterative"):
        raise ParseError(f"field 'strategy': must be 'direct' or 'iterative', got {strategy!r}")

    models = tuple(m.strip().upper() for m in raw.get("models", ",".join(ALL_MODELS)).split(",")
                   if m.strip())
    for m in models:
        if m not in ALL_MODELS:
            raise ParseError(f"field 'models': unknown model {m!r}")
    _check_no_repeats("models", models)

    try:
        cutoff = date.fromisoformat(raw.get("cutoff", "2017-01-01"))
    except ValueError:
        raise ParseError(f"field 'cutoff': expected YYYY-MM-DD, got {raw['cutoff']!r}")

    def _int(key, default):
        try:
            return int(raw.get(key, default))
        except ValueError:
            raise ParseError(f"field {key!r}: expected an integer, got {raw[key]!r}")

    def _count(key, default):
        value = _int(key, default)
        if value < 1:
            raise ParseError(f"field {key!r}: must be >= 1, got {value}")
        return value

    def _positive_float(key, default):
        try:
            value = float(raw.get(key, default))
        except ValueError:
            raise ParseError(f"field {key!r}: expected a number, got {raw[key]!r}")
        if not (math.isfinite(value) and value > 0.0):
            raise ParseError(f"field {key!r}: must be finite and > 0, got {value}")
        return value

    seed = _int("seed", 0)
    if seed < 0:
        raise ParseError(f"field 'seed': must be >= 0, got {seed}")

    shuffle_raw = raw.get("shuffle", "true").lower()
    if shuffle_raw not in ("true", "false"):
        raise ParseError(f"field 'shuffle': expected true/false, got {shuffle_raw!r}")

    scaler_scope = raw.get("scaler_scope", "train")
    if scaler_scope not in ("train", "full"):
        raise ParseError(f"field 'scaler_scope': must be 'train' or 'full', got {scaler_scope!r}")

    cfg = ExperimentConfig(
        data_dir=raw.get("data_dir", "./data"),
        stocks=stocks,
        cutoff=cutoff,
        mode=mode,
        windows=windows,
        horizons=horizons,
        strategy=strategy,
        models=models,
        n_runs=_count("n_runs", 5),
        output_dir=raw.get("output_dir", "./results"),
        train=TrainConfig(
            epochs=_count("epochs", 100),
            batch_size=_count("batch_size", 32),
            lr=_positive_float("lr", 1e-3),
            seed=seed,
            shuffle=shuffle_raw == "true",
            origin_stride=_count("origin_stride", 1),
            scaler_scope=scaler_scope,
        ),
    )

    for symbol in cfg.stocks:
        if not os.path.isfile(cfg.stock_path(symbol)):
            raise MissingDataFile(f"no CSV for {symbol} at {cfg.stock_path(symbol)}")
    return cfg
