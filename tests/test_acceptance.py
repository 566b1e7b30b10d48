"""End-to-end acceptance checks.

One test per criterion, each printing a single pass/fail line, run with
`pytest tests/test_acceptance.py -s`.  These are intentionally heavier
than the unit tests: full oracle sweeps, real training runs on the
reference corpus, and byte-level determinism checks.
"""

import time
from datetime import date, timedelta

import numpy as np
import pytest
from test_evaluation import reference_dm

from stockcast.checks import grad_check, run_gradcheck_suite
from stockcast.cli import main
from stockcast.config import ExperimentConfig
from stockcast.errors import (
    ArityMismatch,
    DegenerateDifferential,
    DegenerateRange,
    DuplicateDate,
    EmptyPartition,
    EmptySeries,
    MalformedInput,
    MissingDataFile,
    NonFiniteGradient,
    NonFiniteLoss,
    ParseError,
    ShapeMismatch,
    TooFewRuns,
    WindowTooLarge,
    WindowTooSmall,
)
from stockcast.evaluation import dm_test
from stockcast.experiment import TrainConfig, plan_grid, run_grid, train
from stockcast.ingest import TimeSeries, load_series
from stockcast.models import build_cnn, build_surrogate
from stockcast.nn.layers import dense
from stockcast.nn.params import ParamSet
from stockcast.preprocess import fit_scaler, split_by_date
from stockcast.runner import prepare_series
from stockcast.synthetic import SYMBOLS
from stockcast.windowing import FunctionModel, forecast, make_samples, rolling_test_forecast


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# 1 ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    results = run_gradcheck_suite(seed=7)
    elapsed = time.time() - t0
    names = {r.name for r in results}
    assert {"dense", "conv1d", "maxpool", "gru_cell", "lstm_cell", "mse",
            "arch_MLP", "arch_CNN", "arch_GRU", "arch_LSTM"} <= names
    worst = max(r.worst_error / r.tol for r in results)
    ok = all(r.passed for r in results) and elapsed < 60
    report("1 gradient correctness", ok,
           f"(worst error {worst:.3f}x its tolerance, {elapsed:.1f}s)")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_windowing_oracle():
    checked = 0
    for n in range(1, 201):
        values = tuple(float(v) for v in range(n))
        for w in range(1, 16):
            # the oracle enumerates every candidate start index
            oracle = [(values[i:i + w], (values[i + w],))
                      for i in range(n) if i + w + 1 <= n]
            if not oracle:
                with pytest.raises(WindowTooLarge):
                    make_samples(values, w, 1)
            else:
                X, Y = make_samples(values, w, 1)
                assert len(X) == len(Y) == len(oracle) == n - w
                assert all(tuple(x) == o[0] and tuple(y) == o[1]
                           for x, y, o in zip(X.tolist(), Y.tolist(), oracle))
                checked += 1
            for h in range(1, 29):
                oracle = [(values[i:i + w], values[i + w:i + w + h])
                          for i in range(n) if i + w + h <= n]
                if not oracle:
                    with pytest.raises(WindowTooLarge):
                        make_samples(values, w, h)
                    continue
                X, Y = make_samples(values, w, h)
                assert len(X) == len(Y) == len(oracle) == n - w - h + 1
                assert all(tuple(x) == o[0] and tuple(y) == o[1]
                           for x, y, o in zip(X.tolist(), Y.tolist(), oracle))
                checked += 1

    # hand-unrolled recursion on the sum model, window [1, 1]:
    # step 1 sums observed (1, 1) -> 2; step 2 mixes observed and
    # predicted (1, 2) -> 3; step 3 sums predictions only (2, 3) -> 5
    model = FunctionModel(np.sum, input_arity=2)
    predictions = forecast(model, [[1.0, 1.0]], 3, "iterative")
    assert predictions.tolist() == [[2.0, 3.0, 5.0]]
    assert model.n_calls == 3
    report("2 windowing oracle equivalence", True,
           f"({checked} (n, w, h) grids, sum-model unroll exact)")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_dm_oracle():
    rng = np.random.default_rng(123)
    done = 0
    worst = 0.0
    while done < 25:
        T = int(rng.integers(20, 201))
        h = int(rng.choice([1, 7, 14]))
        e_a = rng.standard_normal(T)
        e_b = rng.standard_normal(T) + rng.uniform(-0.5, 0.5)
        try:
            want_stat, want_p = reference_dm(list(e_a), list(e_b), h)
        except ValueError:
            continue  # the plain formula has no real root here; redraw
        rep = dm_test(e_a, e_b, h=h)
        worst = max(worst, abs(rep.statistic - want_stat), abs(rep.p_value - want_p))
        assert rep.statistic == pytest.approx(want_stat, abs=1e-9)
        assert rep.p_value == pytest.approx(want_p, abs=1e-9)

        flipped = dm_test(e_b, e_a, h=h)
        assert flipped.statistic == pytest.approx(-rep.statistic, abs=1e-9)
        assert flipped.p_value == pytest.approx(rep.p_value, abs=1e-9)

        scaled = dm_test(10.0 * e_a, 10.0 * e_b, h=h)
        assert scaled.statistic == pytest.approx(rep.statistic, rel=1e-9)
        assert scaled.p_value == pytest.approx(rep.p_value, abs=1e-9)
        done += 1
    report("3 DM oracle", True,
           f"(25 instances, worst deviation {worst:.2e}, antisymmetry + scale invariance)")


# 4 ---------------------------------------------------------------------------


def test_criterion_4_single_step_mlp_band(data_dir):
    t0 = time.time()
    cfg = ExperimentConfig(data_dir=data_dir, stocks=("ACC",), models=("MLP",), windows=(3,),
                           train=TrainConfig(seed=0))
    series = prepare_series(cfg)
    [cell] = run_grid(series, plan_grid(series, cfg))
    elapsed = time.time() - t0
    assert cell.failed_runs == 0 and len(cell.runs) == 5
    mean = cell.interval.mean
    ok = mean < 4.3e-3 and elapsed < 300
    report("4 single-step MLP band", ok,
           f"(mean test MSE {mean:.3e} < 4.3e-3 over 5 seeds, {elapsed:.0f}s)")


# 5 ---------------------------------------------------------------------------


def test_criterion_5_horizon_degradation(data_dir):
    cfg = ExperimentConfig(data_dir=data_dir, stocks=tuple(SYMBOLS), mode="multi",
                           models=("MLP",), windows=(30,), horizons=(7, 28), n_runs=3,
                           train=TrainConfig(epochs=40, batch_size=64, seed=0))
    series = prepare_series(cfg)
    cells = run_grid(series, plan_grid(series, cfg))
    by_stock = {}
    for cell in cells:
        assert cell.failed_runs == 0
        by_stock.setdefault(cell.stock, {})[cell.h] = cell.interval.mean
    degraded = sum(1 for m in by_stock.values() if m[28] >= m[7])
    ok = degraded >= 7
    report("5 horizon degradation", ok,
           f"({degraded}/10 stocks with MSE(h=28) >= MSE(h=7), need >= 7)")


# 6 ---------------------------------------------------------------------------


def test_criterion_6_byte_identical_outputs(data_dir, tmp_path):
    cfg_path = tmp_path / "det.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(
        f"data_dir = {data_dir}\n"
        "stocks = ACC\n"
        "windows = 3\n"
        "models = MLP\n"
        "epochs = 3\n"
        "n_runs = 2\n"
        "seed = 17\n"
        f"output_dir = {out}\n")
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0
    names = ("results.csv", "run_errors.csv", "traces.json")
    first = {n: (out / n).read_bytes() for n in names}
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0
    same = all((out / n).read_bytes() == first[n] for n in names)
    report("6 determinism", same, "(rerun of config + seed is byte-identical)")


# 7 ---------------------------------------------------------------------------


def test_criterion_7_degenerate_inputs(tmp_path):
    cases = []

    def check(name, fn):
        fn()
        cases.append(name)

    # normalization and splitting
    check("constant series -> DegenerateRange",
          lambda: pytest.raises(DegenerateRange, fit_scaler, [5.0, 5.0, 5.0]))

    def _split(cutoff):
        dates = tuple(date(2016, 1, 1) + timedelta(days=i) for i in range(10))
        ts = TimeSeries("T", dates, tuple(float(i) for i in range(10)))
        split_by_date(ts, cutoff)

    check("cutoff before first date -> EmptyPartition",
          lambda: pytest.raises(EmptyPartition, _split, date(2015, 12, 31)))
    check("cutoff at last date -> EmptyPartition",
          lambda: pytest.raises(EmptyPartition, _split, date(2016, 1, 10)))

    # ingestion
    def _load(name, rows):
        path = tmp_path / name
        path.write_text("date,close\n" + "\n".join(rows) + "\n")
        return load_series(str(path), "T")

    check("fewer than 2 valid rows -> EmptySeries",
          lambda: pytest.raises(EmptySeries, _load, "one.csv", ["2016-01-01,5.0"]))
    check("repeated date -> DuplicateDate",
          lambda: pytest.raises(DuplicateDate, _load, "dup.csv",
                                ["2016-01-01,5.0", "2016-01-01,6.0"]))

    # windowing
    check("w >= n -> WindowTooLarge",
          lambda: pytest.raises(WindowTooLarge, make_samples,
                                [1.0, 2.0, 3.0, 4.0, 5.0], 5, 1))
    check("n < w + h -> WindowTooLarge",
          lambda: pytest.raises(WindowTooLarge, make_samples,
                                [1.0, 2.0, 3.0, 4.0], 3, 2))
    check("short test set -> WindowTooLarge",
          lambda: pytest.raises(WindowTooLarge, rolling_test_forecast,
                                FunctionModel(np.sum, 3), [1.0, 2.0, 3.0], 3, (1,)))
    check("wrong model arity -> ArityMismatch",
          lambda: pytest.raises(ArityMismatch, forecast,
                                FunctionModel(np.sum, input_arity=4), [[1.0, 2.0, 3.0]],
                                1, "direct"))

    # h=1: both multi-step strategies reduce to single-step forecasting
    def _h1_equivalence():
        model = FunctionModel(lambda x: 0.5 * x[-1] + 0.1, input_arity=3)
        values = [0.1, 0.4, 0.2, 0.5, 0.3, 0.6, 0.35]
        direct = rolling_test_forecast(model, values, 3, (1,), strategy="direct")[0]
        iterative = rolling_test_forecast(model, values, 3, (1,), strategy="iterative")[0]
        assert all(np.array_equal(d, i) for d, i in zip(direct, iterative))
        origins, predictions, _ = direct
        for origin, prediction in zip(origins.tolist(), predictions.tolist()):
            window = values[origin - 3:origin]
            assert prediction == [0.5 * window[-1] + 0.1]

    check("h=1 strategy equivalence", _h1_equivalence)

    # network layers and training
    check("mismatched shapes -> ShapeMismatch",
          lambda: pytest.raises(ShapeMismatch, dense.forward, np.ones((1, 3)),
                                np.ones((4, 2)), np.ones(4)))

    def _nonfinite_gradient():
        # x - target overflows to inf, and so does its gradient
        params = ParamSet({"x": np.array([0.0, 1e308])})
        target = np.array([0.0, -1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteGradient):
                grad_check([], params, params["x"], target)

    check("gradient overflow -> NonFiniteGradient", _nonfinite_gradient)

    def _nonfinite_loss():
        model = build_surrogate("MLP", 3, 1, seed=0)
        model.params["l2.b"][:] = 1e200
        X, Y = make_samples(np.linspace(0.1, 0.9, 20), 3, 1)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteLoss):
                train(model, X, Y, TrainConfig(epochs=2, seed=0))

    check("divergent training -> NonFiniteLoss", _nonfinite_loss)
    check("window too small for the CNN -> WindowTooSmall",
          lambda: pytest.raises(WindowTooSmall, build_cnn, 1, 1))

    # evaluation
    check("identical error sequences -> DegenerateDifferential",
          lambda: pytest.raises(DegenerateDifferential, dm_test,
                                np.linspace(0.1, 0.5, 30), np.linspace(0.1, 0.5, 30)))

    def _zero_mean_differential():
        # squared-loss differential alternates +1, -1: statistic 0, p 1
        e_a = np.tile([np.sqrt(2.0), 1.0], 10)
        e_b = np.tile([1.0, np.sqrt(2.0)], 10)
        rep = dm_test(e_a, e_b, h=1)
        assert rep.statistic == 0.0 and rep.p_value == 1.0

    check("zero-mean differential -> statistic 0, p 1", _zero_mean_differential)

    def _single_run():
        values = np.linspace(0.1, 0.9, 30)
        series = {"ACC": (values, values)}
        cfg = ExperimentConfig(stocks=("ACC",), models=("MLP",), windows=(3,), n_runs=1,
                               train=TrainConfig(epochs=1, seed=0))
        [cell] = run_grid(series, plan_grid(series, cfg))
        with pytest.raises(TooFewRuns):
            cell.interval

    check("single run -> TooFewRuns", _single_run)

    # config and DM input files
    def _unknown_field():
        path = tmp_path / "bad.cfg"
        path.write_text("stocks = ACC\nwibble = 3\n")
        with pytest.raises(ParseError, match="wibble"):
            from stockcast.config import parse_config
            parse_config(str(path))

    check("unknown config field -> ParseError", _unknown_field)

    def _missing_file():
        path = tmp_path / "missing.cfg"
        path.write_text(f"data_dir = {tmp_path}\nstocks = NOPE\n")
        from stockcast.config import parse_config
        with pytest.raises(MissingDataFile, match="NOPE"):
            parse_config(str(path))

    check("missing stock CSV -> MissingDataFile", _missing_file)

    def _empty_dm_input():
        path = tmp_path / "empty_errors.csv"
        path.write_text("stock,model,w,h,seed,origin,step,abs_error_norm\n")
        from stockcast.dm_pipeline import load_run_errors
        with pytest.raises(MalformedInput):
            load_run_errors(str(path))

    check("empty DM input -> MalformedInput", _empty_dm_input)

    report("7 degenerate inputs", True, f"({len(cases)} cases)")
