"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py SPEC_JSON SPAWN_TIME

`SPAWN_TIME` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time counts interpreter start-up.  Set-up
ends once stockcast is imported and every workload config is parsed; the
run is the workload's `stockcast.cli.main` calls.  The result is written
as JSON to the path the spec names.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    spawned = float(sys.argv[2])
    os.chdir(spec["workdir"])

    import stockcast.cli
    import stockcast.config

    if os.path.commonpath([stockcast.cli.__file__, spec["src"]]) != spec["src"]:
        raise SystemExit(f"imported stockcast from {stockcast.cli.__file__}, not {spec['src']}")
    tracer = grid_s = None
    if spec["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif spec["mode"] == "grid_timer":
        grid_s = _time_run_grid()
    for cfg in spec["configs"]:
        stockcast.config.parse_config(cfg)
    setup_done = time.monotonic()
    before = resource.getrusage(resource.RUSAGE_SELF)
    codes = []
    for argv in spec["calls"]:
        try:
            codes.append(stockcast.cli.main(argv))
        except SystemExit as exc:  # argparse rejects the call
            codes.append(exc.code)
    run_done = time.monotonic()
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "codes": codes,
        "setup_s": setup_done - spawned,
        "run_s": run_done - setup_done,
        "cpu_s": _cpu(self_usage) - _cpu(before) + _cpu(children),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self_usage.ru_maxrss, children.ru_maxrss) / 1024.0,
    }
    if spec["mode"] == "grid_timer":
        result["grid_s"] = grid_s[0] if grid_s else None
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


def _time_run_grid() -> list[float] | None:
    """Total seconds spent in experiment.run_grid (a one-element list),
    or None when run_grid no longer exists."""
    import stockcast.experiment
    import stockcast.runner

    total = [0.0]
    original = getattr(stockcast.experiment, "run_grid", None)
    if original is None:
        return None

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            total[0] += time.perf_counter() - t0

    for module in (stockcast.experiment, stockcast.runner):
        if getattr(module, "run_grid", None) is original:
            module.run_grid = timed
    return total


if __name__ == "__main__":
    sys.exit(main())
