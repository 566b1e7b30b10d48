"""The three benchmark workloads: their inputs, the calls they make, and
the reference values their outputs are checked against.

Every input is a pure function of the workload seed.  Price series come
from ``stockcast.synthetic.make_series`` and are written as plain
``date,close`` CSVs; the errors CSV for ``dm_errors`` is generated here in
the documented ``run_errors.csv`` format.  The program only ever sees
these files and the config files written next to them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from datetime import date

import numpy as np

MODELS = ("MLP", "CNN", "GRU", "LSTM")
CUTOFF = date(2017, 1, 1)

WHY = {
    "single_w5": "single-step w=5, four models, two seeds, process pool: "
                 "batch-32 training (nn forward/backward/Adam) dominates",
    "multi_w30_h7": "multi-step w=30 h=7, direct then iterative, one job: "
                    "per-origin batch-1 model calls in rolling evaluation dominate",
    "dm_errors": "dm --mode multi on a 694,400-row errors CSV: the reader and "
                 "the DM test only, bypassing nn, models and windowing",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class RunShape:
    """One `stockcast run` workload: a single generated stock."""

    mode: str
    w: int
    h: int
    strategies: tuple[str, ...]
    n_train: int       # points dated on or before the cutoff
    n_test: int        # points after the cutoff
    epochs: int
    n_runs: int
    jobs: int | None   # None: the CLI default (one per CPU)
    unit: str

    @property
    def origins(self) -> int:
        return self.n_test - self.w - self.h + 1


RUN_SHAPES = {
    # unit of work: training sample-epochs over all models and seeds
    "single_w5": RunShape(mode="single", w=5, h=1, strategies=("direct",),
                          n_train=517, n_test=70, epochs=1, n_runs=2, jobs=None,
                          unit="sample-epochs"),
    # unit of work: forecast values over all models, seeds and strategies
    "multi_w30_h7": RunShape(mode="multi", w=30, h=7, strategies=("direct", "iterative"),
                             n_train=45, n_test=46, epochs=1, n_runs=1, jobs=1,
                             unit="forecasts"),
}

# dm_errors file shape: 10 stocks x 4 models x (w=30, h=7) x 5 seeds x
# 496 origins x 7 steps = 694,400 rows
DM_STOCKS = ("ACC", "AXISBANK", "BHARTIARTL", "CIPLA", "HCLTECH",
             "HDFC", "INFY", "JSWSTEEL", "MARUTI", "ULTRACEMCO")
DM_W, DM_H, DM_SEEDS, DM_ORIGINS = 30, 7, 5, 496
DM_ROWS = len(DM_STOCKS) * len(MODELS) * DM_SEEDS * DM_ORIGINS * DM_H
DM_PAIRS = 5  # model pairs in the multi-step DM report
ERROR_COLUMNS = "stock,model,w,h,seed,origin,step,abs_error_norm"


@dataclass
class Prepared:
    """A workload's generated inputs, ready to be run from `workdir`."""

    name: str
    workdir: str
    configs: list[str]                 # config paths relative to workdir
    calls: list[list[str]]             # argv lists for stockcast.cli.main
    outputs: list[str]                 # output files relative to workdir
    units: int                         # work per repetition
    unit: str
    jobs: int                          # pool size of the calls as given
    shape: RunShape | None = None
    out_dirs: list[str] = field(default_factory=list)
    dm_reference: dict | None = None   # (stock, pair) -> (statistic, p_value, T)


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _stock_csv(seed: int, n_train: int, n_test: int) -> str:
    """`date,close` text of generated stock ACC around the cutoff."""
    from stockcast.synthetic import make_series

    ts = make_series("ACC", seed=seed)
    cut = sum(1 for d in ts.dates if d <= CUTOFF)
    lo, hi = cut - n_train, cut + n_test
    if lo < 0 or hi > len(ts.dates):
        raise ValueError(f"generated series too short for {n_train}+{n_test} points")
    lines = ["date,close"]
    lines += [f"{d.isoformat()},{v!r}" for d, v in zip(ts.dates[lo:hi], ts.values[lo:hi])]
    return "\n".join(lines) + "\n"


def _prepare_run(name: str, seed: int, workdir: str) -> Prepared:
    shape = RUN_SHAPES[name]
    os.makedirs(os.path.join(workdir, "data"), exist_ok=True)
    _write(os.path.join(workdir, "data", "ACC.csv"), _stock_csv(seed, shape.n_train, shape.n_test))
    configs, calls, outputs, out_dirs = [], [], [], []
    for strategy in shape.strategies:
        out_dir = os.path.join("out", strategy)
        cfg = f"{strategy}.cfg"
        _write(os.path.join(workdir, cfg), "\n".join([
            "data_dir = data",
            "stocks = ACC",
            f"cutoff = {CUTOFF.isoformat()}",
            f"mode = {shape.mode}",
            f"windows = {shape.w}",
            *([f"horizons = {shape.h}"] if shape.mode == "multi" else []),
            f"strategy = {strategy}",
            f"models = {','.join(MODELS)}",
            f"epochs = {shape.epochs}",
            f"n_runs = {shape.n_runs}",
            f"seed = {seed}",
            f"output_dir = {out_dir}",
        ]) + "\n")
        argv = ["run", "--config", cfg]
        if shape.jobs is not None:
            argv += ["--jobs", str(shape.jobs)]
        configs.append(cfg)
        calls.append(argv)
        out_dirs.append(out_dir)
        outputs += [os.path.join(out_dir, f)
                    for f in ("results.csv", "run_errors.csv", "traces.json")]
    if name == "single_w5":
        units = (shape.n_train - shape.w) * shape.epochs * shape.n_runs * len(MODELS)
    else:
        units = shape.origins * shape.h * shape.n_runs * len(MODELS) * len(shape.strategies)
    return Prepared(name=name, workdir=workdir, configs=configs, calls=calls,
                    outputs=outputs, units=units, unit=shape.unit,
                    jobs=shape.jobs or os.cpu_count() or 1, shape=shape, out_dirs=out_dirs)


def _dm_errors(seed: int) -> np.ndarray:
    """Absolute errors [stock, model, seed, origin, step].

    Each (stock, model) has its own scale and an AR(1) error path over
    origins shared by the seeds, so the loss differentials are
    autocorrelated and the DM tests range from clearly significant to
    indistinguishable.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    shape = (len(DM_STOCKS), len(MODELS), DM_SEEDS, DM_ORIGINS, DM_H)
    scale = rng.uniform(0.01, 0.03, size=shape[:2])
    ar = np.empty(shape[:2] + (DM_ORIGINS,))
    ar[..., 0] = rng.standard_normal(shape[:2])
    shocks = rng.standard_normal(shape[:2] + (DM_ORIGINS,))
    for t in range(1, DM_ORIGINS):
        ar[..., t] = 0.6 * ar[..., t - 1] + 0.8 * shocks[..., t]
    step_growth = np.sqrt(np.arange(1, DM_H + 1))
    raw = (ar[:, :, None, :, None] * step_growth
           + 0.5 * rng.standard_normal(shape))
    return np.abs(scale[:, :, None, None, None] * raw)


def _prepare_dm(seed: int, workdir: str) -> Prepared:
    os.makedirs(workdir, exist_ok=True)
    errors = _dm_errors(seed)
    text = [f"{x:.10e}" for x in errors.ravel()]
    # the program reads the rounded text, so the reference does too
    parsed = np.array([float(s) for s in text]).reshape(errors.shape)
    lines = ["# stockcast results", "# generated errors for the dm_errors workload",
             ERROR_COLUMNS]
    i = 0
    for stock in DM_STOCKS:
        for model in MODELS:
            for s in range(DM_SEEDS):
                for k in range(DM_ORIGINS):
                    prefix = f"{stock},{model},{DM_W},{DM_H},{s},{k + DM_W}"
                    for step in range(1, DM_H + 1):
                        lines.append(f"{prefix},{step},{text[i]}")
                        i += 1
    _write(os.path.join(workdir, "run_errors.csv"), "\n".join(lines) + "\n")
    reference = {}
    per_series = parsed.mean(axis=2).reshape(len(DM_STOCKS), len(MODELS), -1)
    for si, stock in enumerate(DM_STOCKS):
        for a in range(len(MODELS)):
            for b in range(a + 1, len(MODELS)):
                dm, p, T = dm_reference(per_series[si, a], per_series[si, b], DM_H)
                # swapping the pair negates d_t and so the statistic
                reference[(stock, f"{MODELS[a]}-{MODELS[b]}")] = (dm, p, T)
                reference[(stock, f"{MODELS[b]}-{MODELS[a]}")] = (-dm, p, T)
    return Prepared(name="dm_errors", workdir=workdir, configs=[],
                    calls=[["dm", "--errors", "run_errors.csv", "--mode", "multi",
                            "--output", "dm.csv"]],
                    outputs=["dm.csv"], units=DM_ROWS, unit="rows", jobs=1,
                    dm_reference=reference)


def prepare(name: str, seed: int, workdir: str) -> Prepared:
    if name == "dm_errors":
        return _prepare_dm(seed, workdir)
    return _prepare_run(name, seed, workdir)


def dm_reference(a, b, h: int) -> tuple[float, float, int]:
    """Harvey-adjusted DM statistic and two-sided p-value, squared loss.

    Written out from the formula, term by term:
      d_t = a_t^2 - b_t^2,  gamma_k = (1/T) sum_{t>=k} (d_t - dbar)(d_{t-k} - dbar)
      V = gamma_0 + 2 sum_{k=1}^{h-1} gamma_k   (gamma_0 alone if V <= 0)
      DM = dbar / sqrt(V / T) * sqrt((T + 1 - 2h + h(h-1)/T) / T)
      p = 2 P(t_{T-1} > |DM|)
    """
    from scipy.special import stdtr

    d = a * a - b * b
    T = d.size
    dbar = math.fsum(d.tolist()) / T
    dc = d - dbar
    gamma = [math.fsum((dc[k:] * dc[:T - k]).tolist()) / T for k in range(h)]
    v = gamma[0] + 2.0 * sum(gamma[1:])
    if v <= 0.0:
        v = gamma[0]
    dm = dbar / math.sqrt(v / T) * math.sqrt((T + 1 - 2 * h + h * (h - 1) / T) / T)
    return dm, 2.0 * float(stdtr(T - 1, -abs(dm))), T
