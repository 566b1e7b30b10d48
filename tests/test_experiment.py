import concurrent.futures
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from stockcast import experiment
from stockcast.config import ExperimentConfig
from stockcast.errors import (
    ArityMismatch,
    NonFiniteLoss,
    TooFewRuns,
    WindowTooLarge,
    WindowTooSmall,
)
from stockcast.experiment import CellResult, RunResult, TrainConfig, run_grid, run_model, train
from stockcast.models import KINDS, build_mlp, build_model
from stockcast.runner import execute
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


def test_origin_stride_zero_rejected():
    with pytest.raises(ValueError, match="origin_stride"):
        TrainConfig(origin_stride=0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
def test_bad_lr_rejected(lr):
    with pytest.raises(ValueError, match="lr must be finite and > 0"):
        TrainConfig(lr=lr)


def test_same_seed_identical_history():
    X, Y = make_samples(list(np.sin(np.linspace(0, 6, 80)) * 0.3 + 0.5), 4, 1)
    histories = []
    for _ in range(2):
        model = build_mlp(4, 1, seed=3)
        histories.append(train(model, X, Y, TrainConfig(epochs=5, seed=3)))
    assert histories[0] == histories[1]


def test_unshuffled_history_independent_of_seed():
    X, Y = make_samples(list(np.sin(np.linspace(0, 6, 80)) * 0.3 + 0.5), 4, 1)

    def history(seed, shuffle):
        cfg = TrainConfig(epochs=5, batch_size=16, seed=seed, shuffle=shuffle)
        return train(build_mlp(4, 1, seed=3), X, Y, cfg)

    # the seed orders the batches and nothing else
    assert history(0, shuffle=False) == history(1, shuffle=False)
    assert history(0, shuffle=True) != history(1, shuffle=True)


def test_train_divergence_raises():
    X, Y = constant_samples(value=0.5)
    model = build_mlp(4, 1, seed=0)
    model.params["l2.b"][:] = 1e200  # squared in the loss -> overflow
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteLoss):
            train(model, X, Y, TrainConfig(epochs=1, seed=0))


@pytest.mark.parametrize("kind", KINDS)
def test_train_rejects_windows_of_another_width(kind):
    # the layers alone do not: a CNN built for w=8 runs w=9 windows, and a
    # GRU or LSTM any number of steps
    model = build_model(kind, 8, 1, seed=0)
    before = {name: p.copy() for name, p in model.params.items()}
    rng = np.random.default_rng(5)
    with pytest.raises(ArityMismatch, match=r"expected \[batch, 8\]"):
        train(model, rng.uniform(0, 1, (40, 9)), rng.uniform(0, 1, (40, 1)),
              TrainConfig(epochs=1))
    for name, p in model.params.items():
        assert np.array_equal(p, before[name]), name


def evaluate_fixed(monkeypatch, fn, test_values, w, h):
    """run_model's one direct run, with training skipped and the built
    model replaced by the function fn of one window."""
    monkeypatch.setattr(experiment, "build_model", lambda kind, w, h, seed: FunctionModel(
        fn, input_arity=w))
    monkeypatch.setattr(experiment, "train", lambda *args: [0.0])
    [run] = run_model(np.zeros(w + h), test_values, "MLP", w, TrainConfig(), "direct", (h,))
    assert run.test_mse == np.mean((run.predictions - run.targets) ** 2)
    return run


def test_evaluate_echo_on_constant_series(monkeypatch):
    run = evaluate_fixed(monkeypatch, lambda x: x[-1], np.full(20, 0.7), 3, 1)
    assert run.test_mse == 0.0
    assert len(run.origins) == len(run.predictions) == len(run.targets) == 17


def test_evaluate_constant_half_vs_zero_targets(monkeypatch):
    run = evaluate_fixed(monkeypatch, lambda x: 0.5, np.zeros(20), 3, 1)
    assert run.test_mse == pytest.approx(0.25)


def test_evaluate_mse_equals_mean_of_trace_mses(monkeypatch):
    rng = np.random.default_rng(14)
    values = rng.uniform(0, 1, 40)
    run = evaluate_fixed(monkeypatch, lambda x: np.full(3, x.mean()), values, 5, 3)
    per_origin = [np.mean((np.array(p) - np.array(t)) ** 2)
                  for p, t in zip(run.predictions.tolist(), run.targets.tolist())]
    assert run.test_mse == pytest.approx(np.mean(per_origin))


def run_result(seed, test_mse):
    no_origins = np.empty((0, 1))
    return RunResult(seed, test_mse, [], np.empty(0, dtype=int), no_origins, no_origins)


@pytest.mark.parametrize("errors, mean, std", [
    pytest.param([0.001, 0.002, 0.003], 0.002, 0.001, id="small"),
    pytest.param([1.0, 2.0, 3.0], 2.0, 1.0, id="unit"),
    pytest.param([0.4] * 5, 0.4, 0.0, id="constant"),
])
def test_cell_interval_arithmetic(errors, mean, std):
    cell = CellResult("A", "MLP", 3, 1, "direct", runs=[
        run_result(i, v) for i, v in enumerate(errors)])
    iv = cell.interval
    assert iv.mean == pytest.approx(mean)
    assert iv.std == pytest.approx(std, abs=0)  # exactly 0 for constant errors
    assert iv.n_runs == len(errors)


def test_interval_needs_two_runs():
    cell = CellResult("A", "MLP", 3, 1, "direct",
                      runs=[run_result(0, 0.1)])
    with pytest.raises(TooFewRuns):
        cell.interval


def sine_series(n, lo=0.2, hi=0.8):
    x = np.sin(np.linspace(0, 12, n))
    return lo + (hi - lo) * (x + 1) / 2


def test_run_grid_seeds_derive_from_master():
    tr = sine_series(120)
    te = sine_series(40)
    cfg = TrainConfig(epochs=2, seed=100)
    [cell] = run_grid({"S": (tr, te)}, ["MLP"], [4], [1], cfg, 3, "direct")
    assert [r.seed for r in cell.runs] == [100, 101, 102]


def test_run_grid_iterative_uses_single_output_model(monkeypatch):
    trained = record_training(monkeypatch)
    tr = sine_series(120)
    te = sine_series(40)
    cfg = TrainConfig(epochs=2, seed=0)
    [cell] = run_grid({"S": (tr, te)}, ["MLP"], [4], [3], cfg, 2, "iterative")
    assert cell.h == 3
    assert [outputs for _, _, outputs, _, _ in trained] == [1, 1]
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
    [full] = run_grid({"S": (tr, te)}, ["MLP"], [4], [1], TrainConfig(epochs=3, seed=5), 3,
                      "direct")
    [solo] = run_grid({"S": (tr, te)}, ["MLP"], [4], [1], TrainConfig(epochs=3, seed=7), 1,
                      "direct")
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


def test_run_grid_checks_cnn_window_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "train", lambda *args: calls.append(args) or [0.0])
    series = {"A": (sine_series(100), sine_series(40))}
    cfg = TrainConfig(epochs=1, seed=0)
    with pytest.raises(WindowTooSmall, match=r"window 1 too small for kernel 1 \+ pool 2"):
        run_grid(series, ["MLP", "CNN"], [5, 1], [1], cfg, 1, "direct")
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

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("n_cells, jobs, sizes", [
    (1, 8, [2]), (1, 4096, [2]), (2, 1, []), (3, 8, [6]), (3, 2, [2]),
])
def test_run_grid_pool_capped_at_cells(recording_pool, n_cells, jobs, sizes):
    # a task is one seeded model, so the cap is min(jobs, cells x n_runs)
    series = {"A": (sine_series(100), sine_series(30))}
    cfg = TrainConfig(epochs=1, seed=0)
    cells = run_grid(series, ["MLP"], [3, 4, 5][:n_cells], [1], cfg, 2, "direct", jobs=jobs)
    assert [c.w for c in cells] == [3, 4, 5][:n_cells]
    assert recording_pool == sizes


def two_stocks():
    return {"A": (sine_series(100), sine_series(30)),
            "B": (sine_series(90, 0.3, 0.7), sine_series(30, 0.3, 0.7))}


def record_training(monkeypatch, diverge_seed=None):
    """Wraps experiment.train; returns the (kind, w, outputs, samples, seed)
    of every model trained, in training order."""
    trained = []
    real = experiment.train

    def recording(model, X, Y, cfg):
        trained.append((model.kind, model.w, model.h, len(X), cfg.seed))
        if cfg.seed == diverge_seed:
            raise NonFiniteLoss(f"seed {cfg.seed}")
        return real(model, X, Y, cfg)

    monkeypatch.setattr(experiment, "train", recording)
    return trained


@pytest.mark.parametrize("strategy, trainings_per_group", [("iterative", 1), ("direct", 2)])
def test_run_grid_trains_each_model_once(monkeypatch, strategy, trainings_per_group):
    trained = record_training(monkeypatch)
    cfg = TrainConfig(epochs=1, seed=0)
    cells = run_grid(two_stocks(), ["MLP", "CNN"], [3, 4], [2, 3], cfg, 2, strategy)
    # n_runs x stocks x kinds x windows, times the horizons if direct
    assert len(trained) == 2 * 2 * 2 * 2 * trainings_per_group
    assert len(set(trained)) == len(trained)
    assert {outputs for _, _, outputs, _, _ in trained} == (
        {1} if strategy == "iterative" else {2, 3})
    assert [(c.stock, c.model, c.w, c.h) for c in cells] == [
        (stock, kind, w, h) for stock in "AB" for kind in ("MLP", "CNN")
        for w in (3, 4) for h in (2, 3)]


def test_iterative_grid_cells_equal_standalone_cells():
    # the reference trains one model per horizon, so a model shared
    # across a group's horizons must not change any run
    tr, te = sine_series(100), sine_series(30)
    cfg = TrainConfig(epochs=2, seed=4)
    cells = run_grid({"A": (tr, te)}, ["MLP", "CNN"], [3, 5], [2, 6], cfg, 3, "iterative")
    assert [(c.model, c.w, c.h) for c in cells] == [
        (kind, w, h) for kind in ("MLP", "CNN") for w in (3, 5) for h in (2, 6)]
    for cell in cells:
        assert (cell.stock, cell.strategy, cell.failed_runs) == ("A", "iterative", 0)
        assert [r.seed for r in cell.runs] == [4, 5, 6]
        for run in cell.runs:
            [solo] = run_model(tr, te, cell.model, cell.w, replace(cfg, seed=run.seed),
                               "iterative", (cell.h,))
            assert (run.seed, run.test_mse, run.loss_history) == (
                solo.seed, solo.test_mse, solo.loss_history)
            for name in ("origins", "predictions", "targets"):
                assert np.array_equal(getattr(run, name), getattr(solo, name))


def test_diverged_seed_fails_every_horizon_of_its_group(monkeypatch):
    trained = record_training(monkeypatch, diverge_seed=11)
    cfg = TrainConfig(epochs=1, seed=10)
    cells = run_grid(two_stocks(), ["MLP"], [3], [2, 3, 4], cfg, 3, "iterative")
    assert len(trained) == 2 * 3
    assert len(cells) == 6
    for cell in cells:
        assert cell.failed_runs == 1
        assert [r.seed for r in cell.runs] == [10, 12]


@pytest.mark.parametrize("mode, strategy, horizons", [
    ("single", "direct", (1,)), ("multi", "iterative", (2, 4)),
])
def test_execute_files_identical_for_any_jobs(tmp_path, mode, strategy, horizons):
    days = [date(2016, 9, 1) + timedelta(days=i) for i in range(200)]
    prices = 50.0 + 5.0 * np.sin(np.arange(200) / 7.0)
    lines = ["date,close"] + [f"{d.isoformat()},{p!r}" for d, p in zip(days, prices.tolist())]
    (tmp_path / "AAA.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = ExperimentConfig(data_dir=str(tmp_path), stocks=("AAA",), mode=mode, windows=(3, 5),
                           horizons=horizons, strategy=strategy, models=("MLP", "CNN"),
                           n_runs=2, output_dir=str(out),
                           train=TrainConfig(epochs=2, batch_size=16, seed=3))
    files = []
    for jobs in (1, 2):  # 2: a real process pool over 8 tasks
        assert execute(cfg, jobs=jobs) == 0
        files.append({name: (out / name).read_bytes()
                      for name in ("results.csv", "run_errors.csv", "traces.json")})
    assert files[0] == files[1]
