"""Flat key/value experiment config files.

Format: UTF-8, with or without a byte-order mark; one ``key = value``
per line, ``#`` comments, unknown keys rejected by name.  The keys are
the fields of `ExperimentConfig` (except `train`) followed by those of
`TrainConfig`, in that order; their defaults are the field defaults.
Every default is materialized at parse time so the echoed config in
result headers is self-describing.

`ExperimentConfig` (a grid) and `TrainConfig` (a run's training), built
from a file or in code, hold only values that their echoed lines read
back as, meet their rules, and are frozen, so no later change breaks them.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field, fields
from datetime import date

from .errors import MissingDataFile, ParseError
from .ingest import parse_date
from .models import KINDS

SINGLE_STEP_WINDOWS = (3, 5, 7, 9, 11, 13, 15)
MULTI_STEP_WINDOWS = (30, 60, 90)
MULTI_STEP_HORIZONS = (7, 14, 21, 28)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    shuffle: bool = True
    origin_stride: int = 1
    scaler_scope: str = "train"

    def __post_init__(self):
        # the range rules first, so lr = nan is named by its rule (nan != nan cannot read back)
        for name in ("epochs", "batch_size", "origin_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.scaler_scope not in ("train", "full"):
            raise ValueError(f"scaler_scope must be 'train' or 'full', got {self.scaler_scope!r}")
        _check_reads_back(self)


@dataclass(frozen=True)
class ExperimentConfig:
    data_dir: str = "./data"
    stocks: tuple[str, ...] = ()
    cutoff: date = date(2017, 1, 1)
    mode: str = "single"
    windows: tuple[int, ...] = SINGLE_STEP_WINDOWS  # multi-mode file default: MULTI_STEP_WINDOWS
    horizons: tuple[int, ...] = (1,)                # multi-mode file default: MULTI_STEP_HORIZONS
    strategy: str = "direct"
    models: tuple[str, ...] = KINDS
    n_runs: int = 5
    output_dir: str = "./results"
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        _check_reads_back(self)
        if not isinstance(self.train, TrainConfig):  # a TrainConfig checked itself when built
            raise ValueError(f"train must be a TrainConfig, got {self.train!r}")
        if self.mode not in ("single", "multi"):
            raise ValueError(f"mode must be 'single' or 'multi', got {self.mode!r}")
        if self.mode == "single" and self.horizons != (1,):
            raise ValueError("horizons single-step mode forces horizon 1")
        for name in ("stocks", "models", "windows", "horizons"):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            for i, value in enumerate(grid):
                if value in grid[:i]:
                    raise ValueError(f"{name} must not repeat {value}")
        for name, values in (("windows", self.windows), ("horizons", self.horizons),
                             ("n_runs", (self.n_runs,))):
            if min(values) < 1:
                raise ValueError(f"{name} must be >= 1, got {min(values)}")
        for kind in self.models:
            if kind not in KINDS:
                raise ValueError(f"models unknown model {kind!r}")
        if self.strategy not in ("direct", "iterative"):
            raise ValueError(f"strategy must be 'direct' or 'iterative', got {self.strategy!r}")

    def stock_path(self, symbol: str) -> str:
        return os.path.join(self.data_dir, f"{symbol}.csv")

    def echo_lines(self) -> list[str]:
        """Fully materialized key=value lines for output headers."""
        return [line for cfg in (self, self.train) for *_, line in _echo(cfg)]


def _echo(cfg) -> list[tuple[str, object, str]]:
    """(key, value, echoed line) of each config key a config dataclass holds."""
    return [(f.name, getattr(cfg, f.name), f"{f.name} = {_format(getattr(cfg, f.name))}")
            for f in fields(cfg) if f.name != "train"]


def _check_reads_back(cfg):
    # each message starts with the field name: parse_config reports it as the field
    for key, value, line in _echo(cfg):  # each value reads back as itself, echoing its line
        try:  # newline=None splits lines as a config file's reader does
            read = _read(io.StringIO(line, newline=None))
        except ParseError:
            read = {}
        if read != {key: value} or _format(read[key]) != _format(value):
            raise ValueError(f"{key} {value!r} does not read back from {line!r}")


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _items(raw: str) -> list[str]:
    return [p.strip() for p in raw.split(",") if p.strip()]


def _bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(raw)
    return raw.lower() == "true"


# field type -> (parser, what a parse failure says was expected); the
# str parsers cannot fail, and names are compared upper-cased
_PARSERS = {
    "str": (str, None),
    "tuple[str, ...]": (lambda raw: tuple(p.upper() for p in _items(raw)), None),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_bool, "true/false"),
    "date": (parse_date, "YYYY-MM-DD"),
    "tuple[int, ...]": (lambda raw: tuple(int(p) for p in _items(raw)),
                        "comma-separated integers"),
}


def _read(lines) -> dict:
    """The parsed value of each `key = value` line of `lines`, by key."""
    types = {f.name: f.type for f in fields(ExperimentConfig) + fields(TrainConfig)
             if f.name != "train"}
    values = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in types:
            raise ParseError(f"line {lineno}: unknown field {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate field {key!r}")
        parse, expected = _PARSERS[types[key]]
        try:
            values[key] = parse(raw)
        except ValueError:
            raise ParseError(f"field {key!r}: expected {expected}, got {raw!r}") from None
    return values


def parse_config(path) -> ExperimentConfig:
    """Parse and validate; all defaults materialized."""
    with open(path, encoding="utf-8-sig") as f:
        values = _read(f)

    if not values.get("stocks"):
        raise ParseError("field 'stocks' is required")
    if values.get("mode") == "multi":
        values.setdefault("windows", MULTI_STEP_WINDOWS)
        values.setdefault("horizons", MULTI_STEP_HORIZONS)
    train = {f.name: values.pop(f.name) for f in fields(TrainConfig) if f.name in values}
    try:
        cfg = ExperimentConfig(**values, train=TrainConfig(**train))
    except ValueError as exc:  # every rule reads "<field> <rule>"
        key, _, rule = str(exc).partition(" ")
        raise ParseError(f"field {key!r}: {rule}") from None

    for symbol in cfg.stocks:
        if not os.path.isfile(cfg.stock_path(symbol)):
            raise MissingDataFile(f"no CSV for {symbol} at {cfg.stock_path(symbol)}")
    return cfg
