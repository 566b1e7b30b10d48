"""Seeded loss histories and test MSEs against recorded values.

`tests/data/loss_golden.json` was recorded from the per-gate recurrent
cells and the plain-einsum conv, before the fused sequence ops and the
BLAS conv replaced them.  A speedup may reorder floating-point sums but
must not change results, so every history and test MSE must still agree
to 1e-9 relative.  Re-record (only after a deliberate change of results)
with

    PYTHONPATH=src python tests/test_loss_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from stockcast.config import ExperimentConfig
from stockcast.experiment import TrainConfig, plan_grid, run_grid
from stockcast.models import KINDS
from stockcast.preprocess import fit_scaler, scale
from stockcast.synthetic import make_series

GOLDEN = Path(__file__).parent / "data" / "loss_golden.json"
CELLS = ((5, 1, "direct"), (30, 7, "direct"), (30, 7, "iterative"))
N_TRAIN, N_TEST = 120, 60
RTOL = 1e-9


def _series():
    values = np.array(make_series("ACC").values[:N_TRAIN + N_TEST])
    scaler = fit_scaler(values[:N_TRAIN])
    return scale(scaler, values[:N_TRAIN]), scale(scaler, values[N_TRAIN:])


def compute(kind: str) -> dict:
    """Two seeded 2-epoch runs per cell at production widths."""
    series = {"ACC": _series()}
    out = {}
    for w, h, strategy in CELLS:
        cfg = ExperimentConfig(stocks=("ACC",), mode="multi", models=(kind,), windows=(w,),
                               horizons=(h,), strategy=strategy, n_runs=2,
                               train=TrainConfig(epochs=2, seed=0))
        [cell] = run_grid(series, plan_grid(series, cfg))
        out[f"w={w} h={h} {strategy}"] = {
            "failed_runs": cell.failed_runs,
            "runs": [{"seed": r.seed, "loss_history": r.loss_history,
                      "test_mse": r.test_mse} for r in cell.runs],
        }
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_loss_histories_match_golden(kind):
    golden = json.loads(GOLDEN.read_text())[kind]
    actual = compute(kind)
    assert list(actual) == list(golden)
    for cell, expected in golden.items():
        got = actual[cell]
        assert got["failed_runs"] == expected["failed_runs"], cell
        assert [r["seed"] for r in got["runs"]] == [r["seed"] for r in expected["runs"]]
        for g, e in zip(got["runs"], expected["runs"]):
            np.testing.assert_allclose(g["loss_history"], e["loss_history"],
                                       rtol=RTOL, atol=0, err_msg=cell)
            np.testing.assert_allclose(g["test_mse"], e["test_mse"],
                                       rtol=RTOL, atol=0, err_msg=cell)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({kind: compute(kind) for kind in KINDS}, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
