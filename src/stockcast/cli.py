"""Command-line entry points: run, dm, gradcheck, validate-data."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import parse_config
from .errors import StockcastError
from .ingest import load_series
from .runner import atomic_write, execute


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    return execute(cfg, jobs=args.jobs, all_traces=args.all_traces)


def cmd_dm(args) -> int:
    # an unusable --output fails here, not after the whole errors file is read
    if not args.output:
        raise FileNotFoundError("--output '' names no file")
    if os.path.isdir(args.output):
        raise IsADirectoryError(f"--output {args.output} is a directory")
    directory = os.path.dirname(args.output) or "."
    if not os.path.isdir(directory):
        raise NotADirectoryError(f"--output {args.output}: {directory} is not a directory")
    from .dm_pipeline import dm_csv_text

    text = dm_csv_text(args.errors, mode=args.mode, loss=args.loss,
                       harvey=not args.no_harvey)
    atomic_write(args.output, [text])
    print(f"wrote {args.output}")
    return 0


def cmd_gradcheck(args) -> int:
    from .checks import run_gradcheck_suite

    results = run_gradcheck_suite(seed=args.seed)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:12s} worst rel err {r.worst_error:.3e} "
              f"(tol {r.tol:.0e}, resamples {r.resamples}) {status}")
    return 0 if all(r.passed for r in results) else 1


def cmd_validate_data(args) -> int:
    if args.config:
        cfg = parse_config(args.config)
        paths = [(s, cfg.stock_path(s)) for s in cfg.stocks]
    else:
        paths = [(os.path.splitext(f)[0], os.path.join(args.data_dir, f))
                 for f in sorted(os.listdir(args.data_dir)) if f.endswith(".csv")]
    bad = 0
    for symbol, path in paths:
        try:
            ts, dropped = load_series(path, symbol)
        except (StockcastError, OSError) as exc:
            print(f"{symbol}: ERROR {exc}")
            bad += 1
            continue
        note = f", dropped {len(dropped)} row(s)" if dropped else ""
        print(f"{symbol}: ok, {len(ts)} points "
              f"{ts.dates[0].isoformat()}..{ts.dates[-1].isoformat()}{note}")
        for idx, reason in dropped[:10]:
            print(f"  row {idx}: {reason}")
    return 1 if bad else 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def default_jobs() -> int:
    """The number of CPUs this process may run on (its affinity mask where
    the OS reports one, as under taskset or a cpuset), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stockcast",
        description="Windowed stock-price forecasting benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--jobs", type=positive_int, default=default_jobs())
    p_run.add_argument("--seed", type=non_negative_int, default=None,
                       help="override the config master seed")
    p_run.add_argument("--all-traces", action="store_true",
                       help="emit forecast traces for every seed, not just the best")
    p_run.set_defaults(fn=cmd_run)

    p_dm = sub.add_parser("dm", help="pairwise DM tests from a run_errors CSV")
    p_dm.add_argument("--errors", required=True, help="run_errors.csv from `run`")
    p_dm.add_argument("--mode", choices=("single", "multi"), default="single")
    p_dm.add_argument("--loss", choices=("squared", "absolute"), default="squared")
    p_dm.add_argument("--no-harvey", action="store_true",
                      help="plain DM statistic with a normal reference")
    p_dm.add_argument("--output", default="dm.csv")
    p_dm.set_defaults(fn=cmd_dm)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    p_gc.add_argument("--seed", type=non_negative_int, default=7)
    p_gc.set_defaults(fn=cmd_gradcheck)

    p_vd = sub.add_parser("validate-data", help="validate close-price CSV files")
    p_vd.add_argument("--config", default=None)
    p_vd.add_argument("--data-dir", default="./data")
    p_vd.set_defaults(fn=cmd_validate_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StockcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
