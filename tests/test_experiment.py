import concurrent.futures

import numpy as np
import pytest

from stockcast import experiment
from stockcast.errors import NonFiniteLoss, TooFewRuns, WindowTooLarge
from stockcast.experiment import (
    CellResult,
    LossInterval,
    RunResult,
    TrainConfig,
    evaluate_run,
    run_cell,
    run_grid,
    train,
)
from stockcast.models import ArchSpec, build_mlp
from stockcast.windowing import FunctionModel, make_samples


def constant_samples(n=64, w=4, value=0.5):
    return make_samples([value] * (n + w), w, 1)


def test_train_constant_target_converges():
    X, Y = constant_samples()
    model = build_mlp(4, 1, seed=0)
    history = train(model, X, Y, TrainConfig(epochs=200, seed=0))
    assert history[-1] < 1e-4


def test_epochs_zero_rejected():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_batch_size_zero_rejected():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_same_seed_identical_history():
    X, Y = make_samples(list(np.sin(np.linspace(0, 6, 80)) * 0.3 + 0.5), 4, 1)
    histories = []
    for _ in range(2):
        model = build_mlp(4, 1, seed=3)
        histories.append(train(model, X, Y, TrainConfig(epochs=5, seed=3)))
    assert histories[0] == histories[1]


def test_train_divergence_raises():
    X, Y = constant_samples(value=0.5)
    model = build_mlp(4, 1, seed=0)
    model.params["l2.b"].data[:] = 1e200  # squared in the loss -> overflow
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteLoss):
            train(model, X, Y, TrainConfig(epochs=1, seed=0))


def test_evaluate_echo_on_constant_series():
    model = FunctionModel(lambda x: x[-1], input_arity=3, output_arity=1)
    mse, origins, predictions, targets = evaluate_run(model, np.full(20, 0.7), 3, 1, "direct")
    assert mse == 0.0
    assert len(origins) == len(predictions) == len(targets) == 17


def test_evaluate_constant_half_vs_zero_targets():
    model = FunctionModel(lambda x: 0.5, input_arity=3, output_arity=1)
    mse, *_ = evaluate_run(model, np.zeros(20), 3, 1, "direct")
    assert mse == pytest.approx(0.25)


def test_evaluate_mse_equals_mean_of_trace_mses():
    rng = np.random.default_rng(14)
    values = rng.uniform(0, 1, 40)
    model = FunctionModel(lambda x: np.full(3, x.mean()), input_arity=5, output_arity=3)
    mse, _, predictions, targets = evaluate_run(model, values, 5, 3, "direct")
    per_origin = [np.mean((np.array(p) - np.array(t)) ** 2)
                  for p, t in zip(predictions.tolist(), targets.tolist())]
    assert mse == pytest.approx(np.mean(per_origin))


def run_result(seed, test_mse):
    no_origins = np.empty((0, 1))
    return RunResult(seed, 0.0, test_mse, [], np.empty(0, dtype=int), no_origins, no_origins)


def test_loss_interval_arithmetic():
    cell = CellResult("A", "MLP", 3, 1, "direct", runs=[
        run_result(i, v) for i, v in enumerate([0.001, 0.002, 0.003])])
    iv = cell.interval
    assert iv.mean == pytest.approx(0.002)
    assert iv.std == pytest.approx(0.001)
    assert iv.n_runs == 3


def test_interval_needs_two_runs():
    cell = CellResult("A", "MLP", 3, 1, "direct",
                      runs=[run_result(0, 0.1)])
    with pytest.raises(TooFewRuns):
        cell.interval


def sine_series(n, lo=0.2, hi=0.8):
    x = np.sin(np.linspace(0, 12, n))
    return lo + (hi - lo) * (x + 1) / 2


def test_run_cell_seeds_derive_from_master():
    tr = sine_series(120)
    te = sine_series(40)
    cfg = TrainConfig(epochs=2, seed=100)
    cell = run_cell("S", tr, te, ArchSpec("MLP", 4, 1), cfg, 3, "direct")
    assert [r.seed for r in cell.runs] == [100, 101, 102]


def test_run_cell_iterative_uses_single_output_model():
    tr = sine_series(120)
    te = sine_series(40)
    cfg = TrainConfig(epochs=2, seed=0)
    cell = run_cell("S", tr, te, ArchSpec("MLP", 4, 3), cfg, 2, "iterative")
    assert cell.h == 3
    assert all(r.predictions.shape == (40 - 4 - 3 + 1, 3) for r in cell.runs)


def test_run_grid_shape_and_order():
    series = {"A": (sine_series(100), sine_series(30)),
              "B": (sine_series(100), sine_series(30))}
    cfg = TrainConfig(epochs=2, seed=0)
    cells = run_grid(series, ["MLP"], [3, 5], [1], cfg, 2, "direct")
    assert [(c.stock, c.w) for c in cells] == [("A", 3), ("A", 5), ("B", 3), ("B", 5)]
    for c in cells:
        assert len(c.runs) == 2
        assert c.failed_runs == 0


def test_run_order_independence():
    # a run's result depends only on its seed, not on which runs precede it
    tr = sine_series(120)
    te = sine_series(40)
    arch = ArchSpec("MLP", 4, 1)
    full = run_cell("S", tr, te, arch, TrainConfig(epochs=3, seed=5), 3, "direct")
    solo = run_cell("S", tr, te, arch, TrainConfig(epochs=3, seed=7), 1, "direct")
    assert full.runs[2].seed == solo.runs[0].seed == 7
    assert full.runs[2].test_mse == solo.runs[0].test_mse
    assert full.runs[2].loss_history == solo.runs[0].loss_history


def test_run_grid_checks_windows_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "train", lambda *args: calls.append(args) or [0.0])
    series = {"A": (sine_series(100), sine_series(40))}
    cfg = TrainConfig(epochs=1, seed=0)
    with pytest.raises(WindowTooLarge, match=r"stock A: window 50, horizon 1"):
        run_grid(series, ["MLP"], [3, 50], [1], cfg, 1, "direct")
    assert calls == []


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces ProcessPoolExecutor with an in-process stand-in; returns the
    list of pool sizes requested."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("n_cells, jobs, sizes", [
    (1, 8, []), (1, 4096, []), (2, 1, []), (3, 8, [3]), (3, 2, [2]),
])
def test_run_grid_pool_capped_at_cells(recording_pool, n_cells, jobs, sizes):
    series = {"A": (sine_series(100), sine_series(30))}
    cfg = TrainConfig(epochs=1, seed=0)
    cells = run_grid(series, ["MLP"], [3, 4, 5][:n_cells], [1], cfg, 2, "direct", jobs=jobs)
    assert [c.w for c in cells] == [3, 4, 5][:n_cells]
    assert recording_pool == sizes
