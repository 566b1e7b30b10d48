"""stockcast benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload single_w5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each repetition is a fresh interpreter (perfbench/rep.py) that imports
stockcast from ./src of this checkout and drives it through
`stockcast.cli.main`.  Repetitions run back to back until `--seconds`
have passed; every metric is the median over them, with timings scaled
to the reference machine's speed by a calibration process run between
repetitions (see Calibration).  Every repetition's
outputs are checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import DM_H, DM_PAIRS, DM_STOCKS, MODELS, WORKLOADS, prepare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REP = os.path.join(HERE, "rep.py")
REFERENCE = os.path.join(HERE, "reference.json")
# a single-workload invocation ends within this many seconds of starting
HARD_LIMIT_S = 170.0
MIN_UNTRACED_REPS = 3
# two rounds, so the tracing overhead is not one pair's noise
MIN_TRACED_ROUNDS = 2
CALIBRATE = os.path.join(HERE, "calibrate.py")
# calibrate.py's typical wall time on the reference machine (2-vCPU Xeon VM)
CAL_REF_S = 0.25
MSE_REL_TOL = 1e-6
DM_REL_TOL = 1e-6

END_TO_END = ("setup_s", "run_s", "cpu_s", "items_per_s", "peak_rss_mb")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Per-layer unit from the metric name's suffix."""
    parts = name.split(".")
    key = parts[-2] if parts[-1] in ("train", "eval", "p50", "p99") else parts[-1]
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_share") or key == "pool_efficiency":
        return "share"
    return "count"


class Tally:
    """Checks and runs attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def machine_info() -> dict:
    import importlib.metadata

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": 1,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread per process, so jobs x threads <= nproc
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=SRC)
    return env


def jobs_1(calls: list[list[str]]) -> list[list[str]]:
    """The calls with every `run` pinned to one job."""
    out = []
    for argv in calls:
        if argv[0] == "run":
            i = argv.index("--jobs") if "--jobs" in argv else len(argv)
            argv = argv[:i] + ["--jobs", "1"] + argv[i + 2:]
        out.append(argv)
    return out


def stop_session(pgid: int):
    """Kill whatever is left in a repetition's session and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(prep, mode: str, calls, index: int, stop_at: float) -> dict | None:
    """One repetition in a fresh interpreter; None if it failed."""
    spec_path = os.path.join(prep.workdir, f"rep{index}.json")
    result_path = os.path.join(prep.workdir, f"rep{index}.result.json")
    log_path = os.path.join(prep.workdir, f"rep{index}.log")
    spec = {"workdir": prep.workdir, "src": SRC, "mode": mode, "configs": prep.configs,
            "calls": calls, "result": result_path,
            "spans": os.path.join(WORK, f"spans-{prep.name}.json")}
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, REP, spec_path, repr(spawned)],
                                cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, stop_at - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = "timeout"
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        stop_session(proc.pid)
    if code != 0 or not os.path.exists(result_path):
        with open(log_path, encoding="utf-8", errors="replace") as f:
            tail = f.read()[-2000:]
        print(f"repetition {index} ({mode}) failed with {code}:\n{tail}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    result["mode"] = mode
    return result


# --- machine speed -------------------------------------------------------------

class Calibration:
    """Wall times of perfbench/calibrate.py, run in a fresh interpreter
    just before each repetition and just after it.

    The machine is shared, and its speed drifts by tens of percent within
    minutes.  A repetition's timings are scaled by CAL_REF_S over the mean
    of the calibration times on either side of it, which reads them at the
    reference machine's speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        # timed by the child itself: waiting with a timeout polls, which
        # would round the parent's reading up by tens of milliseconds
        spawned = time.monotonic()
        done = subprocess.run([sys.executable, CALIBRATE, repr(spawned)], cwd=ROOT,
                              env=child_env(), check=True, capture_output=True, text=True,
                              timeout=60)
        self.samples.append(float(done.stdout))

    def factor(self) -> float:
        """Reference seconds per measured second, from the last two samples."""
        return 2.0 * CAL_REF_S / (self.samples[-2] + self.samples[-1])


# --- output checks ------------------------------------------------------------

def data_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f if not line.startswith("#")]
    return [line.split(",") for line in lines[1:] if line]


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def output_digest(prep) -> str:
    h = hashlib.sha256()
    for rel in prep.outputs:
        with open(os.path.join(prep.workdir, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check_run_outputs(prep, seed: int, reference: dict, tally: Tally):
    shape = prep.shape
    recorded = reference.get(prep.name, {}).get(str(seed))
    for strategy, out_dir in zip(shape.strategies, prep.out_dirs):
        base = os.path.join(prep.workdir, out_dir)
        results = {r[1]: r for r in data_rows(os.path.join(base, "results.csv"))}
        errors = data_rows(os.path.join(base, "run_errors.csv"))
        tally.check(len(errors) == shape.origins * shape.h * shape.n_runs * len(results)
                    and len(results) == len(MODELS),
                    f"{strategy}: run_errors.csv has {len(errors)} rows for {len(results)} models")
        sq: dict[tuple, list[float]] = {}
        for stock, model, w, h, run_seed, origin, step, err in errors:
            sq.setdefault((model, run_seed), []).append(float(err) ** 2)
        for model, row in results.items():
            n_runs, failed_runs = int(row[7]), int(row[8])
            # every training run counts; a divergent one counts as failed
            tally.attempted += n_runs + failed_runs
            tally.failed += failed_runs
            tally.check(failed_runs == 0 and n_runs == shape.n_runs,
                        f"{strategy}/{model}: {n_runs} runs, {failed_runs} failed")
            mean_mse = float(row[5]) if row[5] else math.nan
            tally.check(math.isfinite(mean_mse), f"{strategy}/{model}: mean_mse {row[5]!r}")
            per_seed = [math.fsum(v) / len(v) for (m, _), v in sq.items() if m == model]
            tally.check(bool(per_seed) and _close(mean_mse, math.fsum(per_seed) / len(per_seed),
                                                  MSE_REL_TOL),
                        f"{strategy}/{model}: mean_mse disagrees with run_errors.csv")
            if recorded is not None:
                want = recorded[f"{strategy}/{model}"]
                tally.check(_close(mean_mse, want, MSE_REL_TOL),
                            f"{strategy}/{model}: mean_mse {mean_mse!r}, recorded {want!r}")


def check_dm_outputs(prep, tally: Tally):
    rows = data_rows(os.path.join(prep.workdir, "dm.csv"))
    expected = len(DM_STOCKS) * DM_PAIRS
    tally.check(len(rows) == expected, f"dm.csv has {len(rows)} rows, expected {expected}")
    for stock, pair, stat, p, h, T, variant in rows:
        ref = prep.dm_reference.get((stock, pair))
        ok = (ref is not None and variant == "harvey" and int(h) == DM_H and int(T) == ref[2]
              and _close(float(stat), ref[0], DM_REL_TOL) and _close(float(p), ref[1], DM_REL_TOL))
        tally.check(ok, f"dm {stock} {pair}: {stat} p={p}, reference {ref}")


def check_repetition(prep, seed: int, result: dict | None, reference: dict,
                     digests: list[str], tally: Tally):
    ok = result is not None and all(c == 0 for c in result["codes"])
    tally.check(ok, f"repetition exit codes {result and result['codes']}")
    if not ok:
        return
    if prep.name == "dm_errors":
        check_dm_outputs(prep, tally)
    else:
        check_run_outputs(prep, seed, reference, tally)
    digest = output_digest(prep)
    digests.append(digest)
    tally.check(digest == digests[0], "outputs differ from the first repetition's")


# --- measurement --------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def measure(prep, seed: int, seconds: float, trace: bool, reference: dict,
            tally: Tally, stop_at: float) -> list[dict]:
    cal = None
    if trace:
        plan = [("grid_timer", jobs_1(prep.calls))]
        if prep.jobs != 1:
            plan.append(("untraced", prep.calls))
        plan.append(("traced", jobs_1(prep.calls)))
        min_rounds = MIN_TRACED_ROUNDS
    else:
        # only end-to-end timings are scaled: a traced run reports ratios
        # of times taken moments apart
        cal = Calibration()
        plan = [("untraced", prep.calls)]
        min_rounds = MIN_UNTRACED_REPS
    # untimed warm-up: byte-compiles stockcast and fills the file cache
    run_child(prep, "untraced", [], 0, stop_at)
    deadline = time.monotonic() + seconds
    results, round_s, digests = [], [], []
    if cal is not None:
        cal.sample()
    while True:
        started = time.monotonic()
        for mode, calls in plan:
            result = run_child(prep, mode, calls, len(results) + 1, stop_at)
            check_repetition(prep, seed, result, reference, digests, tally)
            if cal is not None:
                cal.sample()
            if result is not None:
                result["speed"] = cal.factor() if cal is not None else 1.0
                results.append(result)
        round_s.append(time.monotonic() - started)
        now, expected = time.monotonic(), median(round_s)
        if now + expected > stop_at:
            break
        if len(round_s) >= min_rounds and now + expected > deadline:
            break
    return results


def end_to_end_metrics(prep, results: list[dict]) -> tuple[dict, int]:
    """Medians over the untraced repetitions; timings at the reference
    machine's speed (see Calibration)."""
    reps = [r for r in results if r["mode"] == "untraced"]
    for name in ("setup_s", "run_s", "cpu_s"):
        print(f"  {name:14s} as measured: {' '.join(f'{r[name]:.4g}' for r in reps)}")
    speeds = " ".join(f"{r['speed']:.4g}" for r in reps)
    print(f"  speed factor   per rep:     {speeds}")
    values = {name: [r[name] * r["speed"] for r in reps] for name in ("setup_s", "run_s", "cpu_s")}
    values["items_per_s"] = [prep.units / v for v in values["run_s"]]
    values["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]
    for name in END_TO_END:
        print(f"  {name:14s} repetitions: {' '.join(f'{v:.4g}' for v in values[name])}")
    return {name: median(values[name]) for name in END_TO_END}, len(reps)


def per_layer_metrics(prep, results: list[dict], tally: Tally) -> tuple[dict, list[str]]:
    traced = [r for r in results if r["mode"] == "traced"]
    timed = [r for r in results if r["mode"] == "grid_timer"]
    at_jobs = [r for r in results if r["mode"] == "untraced"] or timed
    absent = sorted({a for r in traced for a in r["absent"]})
    layers = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    grid_s = [r["grid_s"] for r in timed if r["grid_s"] is not None]
    if grid_s:
        run_s = median([r["run_s"] for r in at_jobs])
        layers["experiment.pool_efficiency"] = median(grid_s) / (prep.jobs * run_s)
    else:
        layers["experiment.pool_efficiency"] = 0.0
        absent.append("experiment.run_grid (pool_efficiency)")
    layers["trace.overhead_share"] = (median([r["run_s"] for r in traced])
                                      / median([r["run_s"] for r in timed]) - 1.0)
    out_bytes = sum(os.path.getsize(os.path.join(prep.workdir, p)) for p in prep.outputs)
    layers["runner.output_mb"] = out_bytes / 1e6
    layers["runner.run_errors_rows"] = sum(
        len(data_rows(os.path.join(prep.workdir, p)))
        for p in prep.outputs if p.endswith("run_errors.csv"))
    layers["dm_pipeline.rows"] = prep.units if prep.name == "dm_errors" else 0
    layers["failed_share"] = tally.failed / max(1, tally.attempted)
    return layers, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Measure one workload; the result object, or None if nothing ran."""
    stop_at = time.monotonic() + HARD_LIMIT_S
    with open(REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)["mean_mse"]
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    try:
        prep = prepare(name, seed, workdir)
        results = measure(prep, seed, seconds, trace, reference, tally, stop_at)
        needed = ("traced", "grid_timer") if trace else ("untraced",)
        missing = [m for m in needed if not any(r["mode"] == m for r in results)]
        if missing:
            print(f"{name}: no {' or '.join(missing)} repetition completed", file=sys.stderr)
            return None
        if trace:
            values, absent = per_layer_metrics(prep, results, tally)
            units = {n: unit_of(n) for n in values}
            print(f"{name}: traced run, {sum(r['mode'] == 'traced' for r in results)} traced "
                  f"repetition(s); spans in {os.path.relpath(WORK, ROOT)}/spans-{name}.json")
            if absent:
                print(f"{name}: absent (reported as 0): {', '.join(absent)}")
        else:
            values, n = end_to_end_metrics(prep, results)
            units = END_TO_END_UNITS
            print(f"{name}: medians of {n} repetitions, {prep.units} {prep.unit} each")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in tally.notes[:20]:
        print(f"{name}: CHECK FAILED: {note}")
    for metric, value in values.items():
        print(f"  {metric:40s} {value:14.6g} {units[metric]}")
    print(f"{name}: {tally.attempted} checks and runs attempted, {tally.failed} failed")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stockcast", "__init__.py")):
        print(f"error: no stockcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace)
            if result is None:
                return 1
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
