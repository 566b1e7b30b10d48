"""Flat key/value experiment config files.

Format: UTF-8, with or without a byte-order mark; one ``key = value``
per line, ``#`` comments, unknown keys rejected by name.  The keys are
the fields of `ExperimentConfig` (except `train`) followed by those of
`TrainConfig`, in that order; their defaults are the field defaults.
Every default is materialized at parse time so the echoed config in
result headers is self-describing.

`ExperimentConfig` is the one checked description of a grid: from a file
or from code, it checks its own fields, mode rule included, when built,
and is frozen, so no later change can break them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from datetime import date

from .errors import MissingDataFile, ParseError
from .experiment import TrainConfig
from .ingest import parse_date
from .models import KINDS

SINGLE_STEP_WINDOWS = (3, 5, 7, 9, 11, 13, 15)
MULTI_STEP_WINDOWS = (30, 60, 90)
MULTI_STEP_HORIZONS = (7, 14, 21, 28)


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
        # each message starts with the field name: parse_config reports it as the field
        if self.mode not in ("single", "multi"):
            raise ValueError(f"mode must be 'single' or 'multi', got {self.mode!r}")
        if self.mode == "single" and tuple(self.horizons) != (1,):
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
        return [f"{f.name} = {_format(getattr(obj, f.name))}" for obj, f in _keys(self)]


def _keys(cfg):
    """(owner, field) for every config key, in file and echo order."""
    return ([(cfg, f) for f in fields(cfg) if f.name != "train"]
            + [(cfg.train, f) for f in fields(cfg.train)])


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


def parse_config(path) -> ExperimentConfig:
    """Parse and validate; all defaults materialized."""
    types = {f.name: f.type for f in fields(ExperimentConfig) + fields(TrainConfig)
             if f.name != "train"}
    values = {}
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
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

    if not values.get("stocks"):
        raise ParseError("field 'stocks' is required")
    if values.get("mode") == "multi":
        values.setdefault("windows", MULTI_STEP_WINDOWS)
        values.setdefault("horizons", MULTI_STEP_HORIZONS)
    train_keys = {f.name for f in fields(TrainConfig)}
    try:
        train = TrainConfig(**{k: v for k, v in values.items() if k in train_keys})
        cfg = ExperimentConfig(**{k: v for k, v in values.items() if k not in train_keys},
                               train=train)
    except ValueError as exc:  # every rule reads "<field> <rule>"
        key, _, rule = str(exc).partition(" ")
        raise ParseError(f"field {key!r}: {rule}") from None

    for symbol in cfg.stocks:
        if not os.path.isfile(cfg.stock_path(symbol)):
            raise MissingDataFile(f"no CSV for {symbol} at {cfg.stock_path(symbol)}")
    return cfg
