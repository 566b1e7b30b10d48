import concurrent.futures
import dataclasses
import os
import re
import tempfile
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stockcast
from stockcast import config, experiment, runner
from stockcast.config import ExperimentConfig, parse_config
from stockcast.errors import (
    ArityMismatch,
    NonFiniteLoss,
    WindowTooLarge,
    WindowTooSmall,
)
from stockcast.experiment import (
    CellResult,
    RunResult,
    Task,
    TrainConfig,
    plan_grid,
    run_grid,
    run_model,
    train,
)
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


@pytest.mark.parametrize("changes", [
    {"epochs": 2.5}, {"batch_size": 1.5}, {"shuffle": "no"}, {"lr": 1},
], ids=lambda changes: next(iter(changes)))
def test_train_config_built_alone_reads_back_from_its_echo(changes):
    # checked when built, so train never starts on epochs = 2.5
    field, = changes
    with pytest.raises(ValueError, match=f"^{field} .* does not read back from "):
        TrainConfig(**changes)


def test_config_train_must_be_a_train_config():
    # ExperimentConfig leaves the train fields' rules to TrainConfig
    message = "train must be a TrainConfig, got {'epochs': 2.5}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(stocks=("ACC",), train={"epochs": 2.5})


def test_train_config_is_one_class():
    assert stockcast.TrainConfig is experiment.TrainConfig is config.TrainConfig


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
    task = Task("S", "MLP", w, (h,), "direct", TrainConfig())
    [run] = run_model(task, np.zeros(w + h), test_values)
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
        run_result(i, v) for i, v in enumerate(errors)], failed_runs=1)
    got_mean, got_std, n_runs = cell.summary()
    assert got_mean == pytest.approx(mean)
    assert got_std == pytest.approx(std, abs=0)  # exactly 0 for constant errors
    assert n_runs == len(errors)  # the failed run is not counted


def test_interval_needs_two_runs():
    # a mean needs one successful run and a std two
    one = CellResult("A", "MLP", 3, 1, "direct", runs=[run_result(0, 0.1)])
    assert one.summary() == (0.1, None, 1)
    assert CellResult("A", "MLP", 3, 1, "direct").summary() == (None, None, 0)


def sine_series(n, lo=0.2, hi=0.8):
    x = np.sin(np.linspace(0, 12, n))
    return lo + (hi - lo) * (x + 1) / 2


def grid_config(series, **fields):
    """An ExperimentConfig naming a grid over the stocks of `series`, in
    multi-step mode, so any horizons are valid."""
    return ExperimentConfig(stocks=tuple(series), mode="multi", **fields)


def grid(series, jobs=1, **fields):
    """run_grid over the plan_grid plan of series and grid_config(series, **fields)."""
    return run_grid(series, plan_grid(series, grid_config(series, **fields)), jobs=jobs)


def test_run_grid_seeds_derive_from_master():
    tr = sine_series(120)
    te = sine_series(40)
    cfg = TrainConfig(epochs=2, seed=100)
    [cell] = grid({"S": (tr, te)}, models=("MLP",), windows=(4,), horizons=(1,), train=cfg,
                  n_runs=3)
    assert [r.seed for r in cell.runs] == [100, 101, 102]


def test_run_grid_iterative_uses_single_output_model(monkeypatch):
    trained = record_training(monkeypatch)
    tr = sine_series(120)
    te = sine_series(40)
    cfg = TrainConfig(epochs=2, seed=0)
    [cell] = grid({"S": (tr, te)}, models=("MLP",), windows=(4,), horizons=(3,), train=cfg,
                  n_runs=2, strategy="iterative")
    assert cell.h == 3
    assert [outputs for _, _, outputs, _, _ in trained] == [1, 1]
    assert all(r.predictions.shape == (40 - 4 - 3 + 1, 3) for r in cell.runs)


def test_run_grid_shape_and_order():
    series = {"A": (sine_series(100), sine_series(30)),
              "B": (sine_series(100), sine_series(30))}
    cfg = TrainConfig(epochs=2, seed=0)
    cells = grid(series, models=("MLP",), windows=(3, 5), horizons=(1,), train=cfg, n_runs=2)
    assert [(c.stock, c.w) for c in cells] == [("A", 3), ("A", 5), ("B", 3), ("B", 5)]
    for c in cells:
        assert len(c.runs) == 2
        assert c.failed_runs == 0


def test_run_order_independence():
    # a run's result depends only on its seed, not on which runs precede it
    tr = sine_series(120)
    te = sine_series(40)
    [full] = grid({"S": (tr, te)}, models=("MLP",), windows=(4,), horizons=(1,),
                  train=TrainConfig(epochs=3, seed=5), n_runs=3)
    [solo] = grid({"S": (tr, te)}, models=("MLP",), windows=(4,), horizons=(1,),
                  train=TrainConfig(epochs=3, seed=7), n_runs=1)
    assert full.runs[2].seed == solo.runs[0].seed == 7
    assert full.runs[2].test_mse == solo.runs[0].test_mse
    assert full.runs[2].loss_history == solo.runs[0].loss_history


def test_plan_grid_checks_windows_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "train", lambda *args: calls.append(args) or [0.0])
    series = {"A": (sine_series(100), sine_series(40))}
    cfg = grid_config(series, models=("MLP",), windows=(3, 50), horizons=(1,), n_runs=1,
                      train=TrainConfig(epochs=1, seed=0))
    with pytest.raises(WindowTooLarge, match=r"stock A: window 50, horizon 1"):
        plan_grid(series, cfg)
    assert calls == []


def test_plan_grid_checks_cnn_window_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "train", lambda *args: calls.append(args) or [0.0])
    series = {"A": (sine_series(100), sine_series(40))}
    cfg = grid_config(series, models=("MLP", "CNN"), windows=(5, 1), horizons=(1,), n_runs=1,
                      train=TrainConfig(epochs=1, seed=0))
    with pytest.raises(WindowTooSmall, match=r"window 1 too small for kernel 1 \+ pool 2"):
        plan_grid(series, cfg)
    assert calls == []


def grid_fields(**changes):
    """ExperimentConfig fields for a small valid grid, with `changes` applied."""
    return {"stocks": ("A", "B"), "mode": "multi", "models": ("MLP",), "windows": (3,),
            "horizons": (2,), "train": TrainConfig(epochs=1), "n_runs": 2, **changes}


def empty_grid_message(name):
    return "n_runs must be >= 1, got 0" if name == "runs" else f"{name} must be non-empty"


@pytest.mark.parametrize("empty, name", [
    ({"stocks": ()}, "stocks"), ({"models": ()}, "models"),
    ({"windows": ()}, "windows"), ({"horizons": ()}, "horizons"), ({"n_runs": 0}, "runs"),
])
def test_plan_grid_rejects_an_empty_grid(empty, name):
    # plan_grid never receives an empty grid: its config is rejected when built
    with pytest.raises(ValueError, match=f"^{empty_grid_message(name)}$"):
        ExperimentConfig(**grid_fields(**empty))


@pytest.mark.parametrize("changes, message", [
    ({"strategy": "Iterative"}, "strategy must be 'direct' or 'iterative', got 'Iterative'"),
    ({"models": ("MLP", "XYZ")}, "models unknown model 'XYZ'"),
    ({"models": ("MLP", "CNN", "MLP")}, "models must not repeat MLP"),
    ({"windows": (3, 4, 3)}, "windows must not repeat 3"),
    ({"horizons": (2, 2)}, "horizons must not repeat 2"),
    ({"windows": (3, 0)}, "windows must be >= 1, got 0"),
    ({"windows": (-1,)}, "windows must be >= 1, got -1"),
    ({"horizons": (0,)}, "horizons must be >= 1, got 0"),
])
def test_plan_grid_checks_config_rules_before_building_a_model(monkeypatch, changes, message):
    # a grid built in code meets the rules a config file does when it is built,
    # and a valid one cannot be changed into one that breaks them
    def fail(*args, **kwargs):
        raise AssertionError("a model was built or trained")

    monkeypatch.setattr(experiment, "build_model", fail)
    monkeypatch.setattr(experiment, "train", fail)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**grid_fields(**changes))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(ExperimentConfig(**grid_fields()), **changes)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ExperimentConfig(stocks=("ACC",), horizons=(3,)),
                 "horizons single-step mode forces horizon 1", id="single-h3"),
    pytest.param(lambda: ExperimentConfig(stocks=("ACC",), mode="Multi"),
                 "mode must be 'single' or 'multi', got 'Multi'", id="mode-case"),
    pytest.param(lambda: replace(ExperimentConfig(stocks=("ACC",), windows=(5,)), horizons=(3,)),
                 "horizons single-step mode forces horizon 1", id="replace-single-h3"),
])
def test_config_built_in_code_meets_the_mode_rules(build, message):
    # a single-mode config with h != 1 cannot exist, so no output is headed
    # "mode = single" over multi-step cells
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_config_cannot_be_changed_after_it_is_checked():
    cfg = ExperimentConfig(stocks=("ACC",))
    assert (cfg.windows, cfg.horizons) == ((3, 5, 7, 9, 11, 13, 15), (1,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.horizons = (3,)


def read_back(changes: dict):
    """Build an ExperimentConfig from `changes` (`epochs` goes to its
    TrainConfig).  Return the ValueError it raises, which must name a changed
    field; or check that it hashes and that parse_config reads it back equal
    from its echoed lines written to a file, and return None."""
    changes = dict(changes)
    epochs = changes.pop("epochs", 1)
    with tempfile.TemporaryDirectory() as data_dir:
        try:
            cfg = ExperimentConfig(data_dir=data_dir, train=TrainConfig(epochs=epochs), **changes)
        except ValueError as exc:
            assert str(exc).split(" ", 1)[0] in {*changes, "epochs"}, exc
            return exc
        hash(cfg)
        for symbol in cfg.stocks:
            open(cfg.stock_path(symbol), "w").close()
        path = os.path.join(data_dir, "echo.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(f"{line}\n" for line in cfg.echo_lines())
        assert parse_config(path) == cfg
    return None


@pytest.mark.parametrize("changes, field", [
    pytest.param({"stocks": ("ACC", "HDFC"), "windows": (5, 7)}, None, id="tuples"),
    pytest.param({"stocks": ["ACC"]}, "stocks", id="stocks-list"),
    pytest.param({"stocks": ("acc",)}, "stocks", id="stocks-lower-case"),
    pytest.param({"stocks": ("ACC",), "windows": (5.0,)}, "windows", id="windows-float"),
    pytest.param({"stocks": ("A,B",)}, "stocks", id="stocks-comma"),
])
def test_config_built_in_code_reads_back_from_its_echo(changes, field):
    # the tuple config reads back; each other one echoes a line that reads back as another grid
    error = read_back(changes)
    assert (error and str(error).split(" ", 1)[0]) == field


def sometimes(valid, invalid):
    """Values of `valid`, and one time in four of `invalid`."""
    return st.integers(0, 3).flatmap(lambda i: invalid if i == 3 else valid)


def grids(elements):
    lists = st.lists(elements, min_size=1, max_size=3, unique=True)
    return sometimes(lists.map(tuple), lists)


# sometimes lower case, or holding a comma, '#', space or line break
NAMES = sometimes(st.text(alphabet="ABC1.-", min_size=1, max_size=4),
                  st.text(alphabet="ABCabc1.-, #\n\r", min_size=1, max_size=4))
# sometimes the float or bool an integer field must not hold
COUNTS = sometimes(st.integers(1, 40), st.one_of(st.floats(1, 40), st.booleans()))


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({
    "stocks": grids(NAMES),
    "mode": st.sampled_from(["single", "multi"]),
    "windows": grids(COUNTS),
    "horizons": sometimes(st.just((1,)), grids(COUNTS)),
    "models": grids(sometimes(st.sampled_from(KINDS), st.sampled_from(["mlp", "Gru"]))),
    "n_runs": COUNTS,
    "epochs": COUNTS,
    "output_dir": sometimes(st.text(alphabet="ab/.-", max_size=4),
                            st.text(alphabet="ab/., #\n\r", max_size=4)),
}))
def test_config_built_in_code_is_rejected_or_reads_back_equal(changes):
    read_back(changes)


@pytest.mark.parametrize("strategy", ["direct", "iterative"])
def test_plan_grid_lists_tasks_in_grid_then_seed_order(monkeypatch, strategy):
    def no_model(*args, **kwargs):
        raise AssertionError("planning built a model")

    monkeypatch.setattr(experiment, "build_model", no_model)
    cfg = TrainConfig(epochs=1, seed=20)
    plan = plan_grid(two_stocks(), grid_config(two_stocks(), models=("MLP", "CNN"),
                                               windows=(3, 4), horizons=(2, 3), train=cfg,
                                               n_runs=2, strategy=strategy))
    # a direct task serves one horizon, an iterative one every horizon
    served = [(2,), (3,)] if strategy == "direct" else [(2, 3)]
    assert plan == [
        Task(stock, kind, w, hs, strategy, replace(cfg, seed=20 + i))
        for stock in "AB" for kind in ("MLP", "CNN") for w in (3, 4)
        for hs in served for i in range(2)]
    assert [(t.stock, t.kind, t.w, t.horizons, t.cfg.seed) for t in plan[:3]] == (
        [("A", "MLP", 3, (2,), 20), ("A", "MLP", 3, (2,), 21), ("A", "MLP", 3, (3,), 20)]
        if strategy == "direct" else
        [("A", "MLP", 3, (2, 3), 20), ("A", "MLP", 3, (2, 3), 21), ("A", "MLP", 4, (2, 3), 20)])


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
    cells = grid(series, jobs=jobs, models=("MLP",), windows=(3, 4, 5)[:n_cells],
                 horizons=(1,), train=cfg, n_runs=2)
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
    cells = grid(two_stocks(), models=("MLP", "CNN"), windows=(3, 4), horizons=(2, 3),
                 train=cfg, n_runs=2, strategy=strategy)
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
    cells = grid({"A": (tr, te)}, models=("MLP", "CNN"), windows=(3, 5), horizons=(2, 6),
                 train=cfg, n_runs=3, strategy="iterative")
    assert [(c.model, c.w, c.h) for c in cells] == [
        (kind, w, h) for kind in ("MLP", "CNN") for w in (3, 5) for h in (2, 6)]
    for cell in cells:
        assert (cell.stock, cell.strategy, cell.failed_runs) == ("A", "iterative", 0)
        assert [r.seed for r in cell.runs] == [4, 5, 6]
        for run in cell.runs:
            task = Task("A", cell.model, cell.w, (cell.h,), "iterative",
                        replace(cfg, seed=run.seed))
            [solo] = run_model(task, tr, te)
            assert (run.seed, run.test_mse, run.loss_history) == (
                solo.seed, solo.test_mse, solo.loss_history)
            for name in ("origins", "predictions", "targets"):
                assert np.array_equal(getattr(run, name), getattr(solo, name))


def test_diverged_seed_fails_every_horizon_of_its_group(monkeypatch):
    trained = record_training(monkeypatch, diverge_seed=11)
    series = two_stocks()
    plan = plan_grid(series, grid_config(series, models=("MLP",), windows=(3,),
                                         horizons=(2, 3, 4), n_runs=3, strategy="iterative",
                                         train=TrainConfig(epochs=1, seed=10)))
    # in either plan order: each cell gets its runs in plan order
    for tasks, stocks, seeds in ((plan, "AB", [10, 12]), (plan[::-1], "BA", [12, 10])):
        cells = run_grid(series, tasks)
        assert [(c.stock, c.h) for c in cells] == [(s, h) for s in stocks for h in (2, 3, 4)]
        for cell in cells:
            assert cell.failed_runs == 1
            assert [r.seed for r in cell.runs] == seeds
    assert len(trained) == 2 * 2 * 3


def runs_by_seed(cells):
    """Each cell's strategy, failed runs and runs by seed, keyed by
    (stock, kind, w, h)."""
    return {(c.stock, c.model, c.w, c.h): (c.strategy, c.failed_runs, {
        r.seed: (r.test_mse, r.loss_history, r.origins.tolist(), r.predictions.tolist(),
                 r.targets.tolist()) for r in c.runs}) for c in cells}


@pytest.mark.parametrize("strategy", ["direct", "iterative"])
def test_run_grid_files_runs_by_task_not_by_position(strategy):
    series = two_stocks()
    cfg = TrainConfig(epochs=1, seed=0)
    plan = plan_grid(series, grid_config(series, models=("MLP", "CNN"), windows=(3, 4),
                                         horizons=(2, 3), train=cfg, n_runs=2,
                                         strategy=strategy))
    in_order, reversed_ = run_grid(series, plan), run_grid(series, plan[::-1])
    assert len(in_order) == len(reversed_) == 2 * 2 * 2 * 2
    assert runs_by_seed(reversed_) == runs_by_seed(in_order)


def one_stock_config(tmp_path, **fields):
    """An ExperimentConfig over one 200-day sine stock, AAA, in tmp_path."""
    days = [date(2016, 9, 1) + timedelta(days=i) for i in range(200)]
    prices = 50.0 + 5.0 * np.sin(np.arange(200) / 7.0)
    lines = ["date,close"] + [f"{d.isoformat()},{p!r}" for d, p in zip(days, prices.tolist())]
    (tmp_path / "AAA.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ExperimentConfig(data_dir=str(tmp_path), stocks=("AAA",), models=("MLP", "CNN"),
                            n_runs=2, output_dir=str(tmp_path / "out"),
                            train=TrainConfig(epochs=2, batch_size=16, seed=3), **fields)


def test_execute_plans_once_before_output_dir_and_runs_that_plan(tmp_path, monkeypatch):
    cfg = one_stock_config(tmp_path, mode="multi", windows=(3, 5), horizons=(2, 4),
                           strategy="direct")
    plans, ran = [], []

    def planning(*args):
        assert not os.path.exists(cfg.output_dir)
        plans.append(experiment.plan_grid(*args))
        return plans[-1]

    def running(series, plan, jobs=1):
        ran.append(plan)
        return experiment.run_grid(series, plan, jobs=jobs)

    monkeypatch.setattr(runner, "plan_grid", planning)
    monkeypatch.setattr(runner, "run_grid", running)
    assert execute(cfg) == 0
    assert len(plans) == len(ran) == 1
    assert ran[0] is plans[0]
    assert len(plans[0]) == 2 * 2 * 2 * 2  # models x windows x horizons x runs


@pytest.mark.parametrize("fields, name", [
    ({"windows": ()}, "windows"), ({"windows": (3,), "stocks": ()}, "stocks"),
    ({"windows": (3,), "n_runs": 0}, "runs"),
])
def test_execute_rejects_an_empty_grid_before_output_dir(tmp_path, fields, name):
    # a config built in code is checked when built, so execute never receives this one
    cfg = one_stock_config(tmp_path)
    with pytest.raises(ValueError, match=f"^{empty_grid_message(name)}$"):
        execute(replace(cfg, **fields))
    assert not os.path.exists(cfg.output_dir)


@pytest.mark.parametrize("mode, strategy, horizons", [
    ("single", "direct", (1,)), ("multi", "iterative", (2, 4)),
])
def test_execute_files_identical_for_any_jobs(tmp_path, mode, strategy, horizons):
    cfg = one_stock_config(tmp_path, mode=mode, windows=(3, 5), horizons=horizons,
                           strategy=strategy)
    out = tmp_path / "out"
    files = []
    for jobs in (1, 2):  # 2: a real process pool over 8 tasks
        assert execute(cfg, jobs=jobs) == 0
        files.append({name: (out / name).read_bytes()
                      for name in ("results.csv", "run_errors.csv", "traces.json")})
    assert files[0] == files[1]
