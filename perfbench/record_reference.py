"""Record the mean_mse values the benchmark checks `run` workloads against.

    python3 perfbench/record_reference.py --seeds 0-49

Runs one repetition of each `run` workload per seed and writes every
cell's mean_mse to perfbench/reference.json.  Run it only on a commit
whose results are known to be right: a later commit must reproduce these
values to the relative tolerance in run.py, or its runs count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run
from workloads import RUN_SHAPES, prepare


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-49", help="inclusive range, e.g. 0-49")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, run.SRC)
    table: dict[str, dict[str, dict[str, float]]] = {name: {} for name in RUN_SHAPES}
    for seed in range(lo, hi + 1):
        for name in RUN_SHAPES:
            workdir = os.path.join(run.WORK, f"record-{name}-{seed}")
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                prep = prepare(name, seed, workdir)
                result = run.run_child(prep, "untraced", prep.calls, 1,
                                       time.monotonic() + run.HARD_LIMIT_S)
                if result is None or any(result["codes"]):
                    print(f"{name} seed {seed}: repetition failed", file=sys.stderr)
                    return 1
                cells = {}
                for strategy, out_dir in zip(prep.shape.strategies, prep.out_dirs):
                    path = os.path.join(workdir, out_dir, "results.csv")
                    for row in run.data_rows(path):
                        cells[f"{strategy}/{row[1]}"] = float(row[5])
                table[name][str(seed)] = cells
                print(f"{name} seed {seed}: {cells}", flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as f:
        json.dump({"mean_mse": table}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
