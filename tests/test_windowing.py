import json
import tracemalloc

import numpy as np
import pytest

from stockcast.config import ExperimentConfig
from stockcast.errors import ArityMismatch, WindowTooLarge
from stockcast.experiment import CellResult, RunResult
from stockcast.models import PAD_ROWS, build_model, build_surrogate
from stockcast.nn import layers
from stockcast.runner import traces_json_text
from stockcast.windowing import (
    EVAL_CHUNK,
    FunctionModel,
    forecast,
    make_samples,
    rolling_test_forecast,
)


def echo(w):
    return FunctionModel(lambda x: x[-1], input_arity=w)


def rows(values, w, h):
    X, Y = make_samples(values, w, h)
    return [(tuple(x), tuple(y)) for x, y in zip(X.tolist(), Y.tolist())]


def test_single_step_samples_basic():
    assert rows([1, 2, 3, 4, 5], 3, 1) == [((1, 2, 3), (4,)), ((2, 3, 4), (5,))]


def test_single_step_window_too_large():
    with pytest.raises(WindowTooLarge):
        make_samples([1, 2, 3, 4, 5], 5, 1)


def test_single_step_count():
    for n in (5, 17, 80):
        for w in range(1, min(n, 15)):
            X, Y = make_samples(list(range(n)), w, 1)
            assert X.shape == (n - w, w) and Y.shape == (n - w, 1)


def test_direct_samples_basic():
    assert rows([1, 2, 3, 4, 5, 6], 3, 2) == [((1, 2, 3), (4, 5)), ((2, 3, 4), (5, 6))]


def test_direct_sample_count_w30_h7():
    X, Y = make_samples(list(range(300)), 30, 7)
    assert X.shape == (264, 30) and Y.shape == (264, 7)


def test_direct_h1_reduces_to_single_step():
    values = list(np.linspace(0, 1, 37))
    X, Y = make_samples(values, 5, 1)
    assert np.array_equal(Y[:, 0], values[5:])
    assert all(np.array_equal(X[k], values[k:k + 5]) for k in range(len(X)))


def test_no_sample_overlaps_own_target():
    for x, y in rows(list(range(50)), 6, 4):
        assert set(x).isdisjoint(y)


def test_single_step_forecast_echo():
    assert forecast(echo(3), [[0.1, 0.2, 0.3]], 1, "direct") == pytest.approx(np.array([[0.3]]))


def test_single_step_forecast_mean_model():
    model = FunctionModel(lambda x: x.mean(), input_arity=3)
    got = forecast(model, [[0.3, 0.6, 0.9], [0.0, 0.1, 0.2]], 1, "direct")
    assert got == pytest.approx(np.array([[0.6], [0.1]]))
    assert model.n_calls == 1


def test_single_step_arity_mismatch():
    model = echo(4)
    with pytest.raises(ArityMismatch):
        forecast(model, [[1.0, 2.0, 3.0]], 1, "direct")
    assert model.n_calls == 0  # rejected before the function runs


def test_forecast_output_width_mismatch():
    wide = FunctionModel(lambda x: np.zeros(2), input_arity=3)
    with pytest.raises(ArityMismatch):
        forecast(wide, [[1.0, 2.0, 3.0]], 3, "direct")
    with pytest.raises(ArityMismatch):
        forecast(wide, [[1.0, 2.0, 3.0]], 3, "iterative")


def test_iterative_echo_fixed_point():
    assert forecast(echo(3), [[1.0, 2.0, 3.0]], 5, "iterative").tolist() == [[3.0] * 5]


def test_iterative_sum_model_hand_unrolled():
    # w=2, h=3: inputs [1,1] -> 2, [1,2] -> 3 (observed+prediction),
    # then [2,3] -> 5 (predictions only: the regime switch past 2w)
    model = FunctionModel(lambda x: x.sum(), input_arity=2)
    assert forecast(model, [[1.0, 1.0]], 3, "iterative").tolist() == [[2.0, 3.0, 5.0]]


def test_iterative_batch_rows_independent():
    # every row of a batch recurses on its own history only
    model = FunctionModel(lambda x: x.sum(), input_arity=2)
    got = forecast(model, [[1.0, 1.0], [0.0, 1.0], [2.0, -1.0]], 3, "iterative")
    assert got.tolist() == [[2.0, 3.0, 5.0], [1.0, 2.0, 3.0], [1.0, 0.0, 1.0]]
    assert model.n_calls == 3


def test_iterative_h1_equals_single_step():
    rng = np.random.default_rng(0)
    windows = rng.uniform(0, 1, (4, 7))
    model = FunctionModel(lambda x: x.mean(), input_arity=7)
    assert np.array_equal(forecast(model, windows, 1, "iterative"),
                          forecast(model, windows, 1, "direct"))


def test_iterative_regime_boundary():
    # for the first w steps each input still contains observed values;
    # from step w+1 on it is predictions only
    w, h = 4, 9
    seen = []
    model = FunctionModel(lambda x: (seen.append(x.copy()), x[-1] + 1.0)[1], input_arity=w)
    forecast(model, [[10.0, 20.0, 30.0, 40.0]], h, "iterative")
    assert len(seen) == h
    observed = {10.0, 20.0, 30.0, 40.0}
    for j, x in enumerate(seen, start=1):
        n_obs = len(observed & set(x))
        assert n_obs == max(0, w - (j - 1))


def test_direct_forecast_broadcast_mean():
    model = FunctionModel(lambda x: np.full(3, x.mean()), input_arity=2)
    assert forecast(model, [[0.2, 0.4]], 3, "direct") == pytest.approx(np.array([[0.3, 0.3, 0.3]]))


def test_direct_h1_equals_single_step():
    model = FunctionModel(lambda x: x[-1], input_arity=3)
    windows = [[0.5, 0.6, 0.7], [0.1, 0.3, 0.2]]
    assert forecast(model, windows, 1, "direct").tolist() == [[0.7], [0.2]]


def test_direct_forecast_single_model_call():
    model = FunctionModel(lambda x: np.zeros(28), input_arity=5)
    forecast(model, np.zeros((40, 5)), 28, "direct")
    assert model.n_calls == 1


def test_rolling_origins():
    model = FunctionModel(lambda x: np.zeros(7), input_arity=30)
    origins, predictions, targets = rolling_test_forecast(model, np.arange(40.0), 30, (7,))[0]
    assert origins.tolist() == [30, 31, 32, 33]
    assert predictions.shape == targets.shape == (4, 7)
    assert targets[:, 0].tolist() == [30.0, 31.0, 32.0, 33.0]


def test_rolling_origin_stride_and_chunks():
    # more origins than one chunk: every window still pairs with its own targets
    values = np.arange(120.0)
    model = FunctionModel(lambda x: x[-1], input_arity=5)
    origins, predictions, targets = rolling_test_forecast(
        model, values, 5, (3,), strategy="iterative", origin_stride=2)[0]
    assert origins.tolist() == list(range(5, 118, 2))
    assert predictions.tolist() == [[o - 1.0] * 3 for o in origins.tolist()]
    assert targets.tolist() == [[o, o + 1.0, o + 2.0] for o in origins.tolist()]
    assert model.n_calls == 3 * 2  # 57 origins: chunks of 32 and 25, 3 steps each


def test_rolling_echo_constant_series():
    model = FunctionModel(lambda x: np.full(4, x[-1]), input_arity=5)
    _, predictions, targets = rolling_test_forecast(model, np.full(20, 3.5), 5, (4,))[0]
    assert (predictions == 3.5).all() and (targets == 3.5).all()


def test_rolling_mse_matches_flat_pairs():
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, 30)
    model = FunctionModel(lambda x: np.full(3, x.mean()), input_arity=5)
    _, predictions, targets = rolling_test_forecast(model, values, 5, (3,))[0]
    flat_sq = [(p - t) ** 2 for pr, tr in zip(predictions.tolist(), targets.tolist())
               for p, t in zip(pr, tr)]
    per_origin = [np.mean([(p - t) ** 2 for p, t in zip(pr, tr)])
                  for pr, tr in zip(predictions.tolist(), targets.tolist())]
    assert np.mean(flat_sq) == pytest.approx(np.mean(per_origin))


def test_rolling_window_too_large():
    with pytest.raises(WindowTooLarge):
        rolling_test_forecast(echo(10), np.arange(12.0), 10, (5,))


def test_trace_json_shape():
    origins, predictions, targets = rolling_test_forecast(
        echo(2), [1.0, 2.0, 1.5, 2.5, 3.0], 2, (2,), strategy="iterative")[0]
    cell = CellResult("A", "MLP", 2, 2, "iterative", runs=[
        RunResult(0, 0.1, [], origins, predictions, targets)])
    record, = json.loads("".join(traces_json_text(ExperimentConfig(stocks=("A",)), [cell])))["records"]
    assert record["traces"] == [
        {"origin": 2, "predictions": [2.0, 2.0], "targets": [1.5, 2.5]},
        {"origin": 3, "predictions": [1.5, 1.5], "targets": [2.5, 3.0]}]


# --- padded evaluation batches and resumed iterative forecasts ------------------

def training_forward(model):
    """The plain iterative loop's model, unpadded: every call runs the
    training forward, which keeps every layer's cache."""
    return lambda windows: layers.run(model.chain, model.params, windows, keep=True)[0]


def plain_loop(model, values, w, h, stride):
    """The reference rolling forecast at h: (origins, predictions, targets)
    of the plain iterative loop, `forecast`, over every rolling window at
    h, 32 windows at a time.  A Model's every call runs its padded
    Model.__call__."""
    X, Y = make_samples(values, w, h)
    X, Y = X[::stride], Y[::stride]
    P = np.concatenate([forecast(model, X[k:k + 32], h, "iterative")
                        for k in range(0, len(X), 32)])
    return w + stride * np.arange(len(X)), P, Y


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
@pytest.mark.parametrize("rows", [16, 32])
def test_padded_call_is_the_training_forward_on_whole_pads(kind, rows):
    model = build_model(kind, 10, 1, seed=2)
    windows = np.random.default_rng(rows).uniform(0, 1, (rows, 10))
    assert np.array_equal(model(windows), training_forward(model)(windows))


@pytest.mark.parametrize("kind", ["MLP", "CNN", "GRU", "LSTM"])
def test_evaluation_rows_do_not_depend_on_their_batch(kind):
    w = 8
    model = build_model(kind, w, 3 if kind in ("MLP", "CNN") else 1, seed=4)
    windows = np.random.default_rng(4).uniform(0, 1, (32, w))
    full = model(windows)
    for n in range(1, 33):
        assert np.array_equal(model(windows[:n]), full[:n]), n


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
@pytest.mark.parametrize("w,h", [(5, 1), (5, 3), (10, 14), (30, 7)])
# 45 origins: chunks of 32 and 13; 36: chunks of 32 and 4
@pytest.mark.parametrize("stride,n_origins", [(1, 45), (3, 36)])
def test_resumed_iterative_equals_plain_loop(kind, w, h, stride, n_origins):
    values = np.random.default_rng((w, h, stride)).uniform(0, 1, w + h + stride * (n_origins - 1))
    model = build_model(kind, w, 1, seed=w + h)
    got = rolling_test_forecast(model, values, w, (h,), "iterative", stride)[0]
    want = plain_loop(model, values, w, h, stride)
    assert len(got[0]) == n_origins
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["GRU", "LSTM"])
def test_resumed_call_runs_only_its_predictions(kind, monkeypatch):
    # layer-1 runs of the sequence layer, in order: T steps over B rows
    original, runs = layers._project, []

    def counting(x, *args):
        if x.shape[2] == 1:
            runs.append(x.shape[:2])
        return original(x, *args)

    monkeypatch.setattr(layers, "_project", counting)
    w, h, n = 4, 7, 10
    model = build_surrogate(kind, w, 1, seed=1)
    rolling_test_forecast(model, np.linspace(0.0, 1.0, w + h + n - 1), w, (h,), "iterative")
    # one run of every start over its w true values (the n origins and the
    # next w - 1 starts), which is call 0; then round r steps the w - 1 - r
    # calls after call r over prediction r in one batch, and that step
    # finishes call r + 1, so call j < w runs j steps; a call j >= w runs
    # w.  Every batch is padded to a multiple of PAD_ROWS rows.
    def pad(b):
        return -(-b // PAD_ROWS) * PAD_ROWS

    rounds = [(1, pad((w - 1 - r) * n)) for r in range(w - 1)]
    assert runs == [(w, pad(n + w - 1))] + rounds + [(w, pad(n))] * (h - w)


def test_eval_chunk_is_whole_pads_of_at_most_32_rows():
    # whole pads: only the last chunk is padded with zero rows; at most 32:
    # even padded, CNN rows are not batch-invariant in larger batches
    assert EVAL_CHUNK % PAD_ROWS == 0 and 0 < EVAL_CHUNK <= 32


# (90, 28) over one chunk: the default grid's longest window and horizon
@pytest.mark.parametrize("kind,w,h,n_origins", [("GRU", 30, 7, 100), ("GRU", 90, 28, 32),
                                                ("LSTM", 90, 28, 32)])
def test_resumed_iterative_peaks_no_higher_than_the_training_forward(kind, w, h, n_origins):
    values = np.random.default_rng(9).uniform(0, 1, w + h + n_origins - 1)
    model = build_model(kind, w, 1, seed=3)
    peaks = []
    for m in (training_forward(model), model):
        tracemalloc.start()
        try:
            rolling_test_forecast(m, values, w, (h,), "iterative")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0], peaks


def test_resumed_iterative_rejects_another_window():
    model = build_surrogate("GRU", 4, 1)
    with pytest.raises(ArityMismatch):
        rolling_test_forecast(model, np.zeros(40), 5, (3,), "iterative")


@pytest.mark.parametrize("stride", [1, 3])
def test_rolling_test_forecast_equals_one_forecast_per_horizon(stride):
    # 150 values, w=8: at stride 1 the horizons have 140, 136 and 131
    # origins; one forecast at h=12 over the 140 serves all three, so its
    # last chunk holds 12 origins where h=12 alone has 3
    values = np.random.default_rng(stride).uniform(0, 1, 150)
    w, horizons = 8, (3, 7, 12)
    for kind in ("MLP", "CNN", "GRU", "LSTM"):
        model = build_model(kind, w, 1, seed=1)
        got = rolling_test_forecast(model, values, w, horizons, "iterative", stride)
        for h, forecast_h in zip(horizons, got):
            for a, b in zip(forecast_h, plain_loop(model, values, w, h, stride)):
                assert np.array_equal(a, b), (kind, h)
    shared, per_horizon = (FunctionModel(lambda x: 0.9 * x[-1] + 0.1 * x.mean(), w)
                           for _ in range(2))
    got = rolling_test_forecast(shared, values, w, horizons, "iterative", stride)
    for h, forecast_h in zip(horizons, got):
        for a, b in zip(forecast_h, plain_loop(per_horizon, values, w, h, stride)):
            assert np.array_equal(a, b)
    assert shared.n_calls < per_horizon.n_calls


@pytest.mark.parametrize("kind", ["MLP", "CNN", "GRU", "LSTM"])
@pytest.mark.parametrize("strategy", ["direct", "iterative"])
def test_no_forecast_reads_a_target(kind, strategy):
    # the last min(horizons) values are targets of every horizon and in no
    # origin's window; a direct model forecasts all horizons at the longest
    w, horizons = 8, (3, 7, 12)
    values = np.random.default_rng(6).uniform(0, 1, 80)
    hidden = values.copy()
    hidden[-min(horizons):] = np.nan
    model = build_model(kind, w, 1 if strategy == "iterative" else max(horizons), seed=5)
    for (origins, predictions, _), want in zip(
            rolling_test_forecast(model, hidden, w, horizons, strategy),
            rolling_test_forecast(model, values, w, horizons, strategy)):
        assert np.isfinite(predictions).all(), (kind, strategy)
        assert np.array_equal(origins, want[0]) and np.array_equal(predictions, want[1])


# brute-force index-enumeration oracles, kept deliberately naive

def oracle_single(values, w):
    out = []
    for k in range(len(values)):
        if k + w < len(values):
            out.append((tuple(values[k + i] for i in range(w)), (values[k + w],)))
    return out


def oracle_direct(values, w, h):
    out = []
    for k in range(len(values)):
        if k + w + h <= len(values):
            out.append((tuple(values[k + i] for i in range(w)),
                        tuple(values[k + w + j] for j in range(h))))
    return out


def test_against_oracle_sampled():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 120))
        w = int(rng.integers(1, 16))
        h = int(rng.integers(1, 29))
        values = list(rng.uniform(0, 1, n))
        if n > w:
            assert rows(values, w, 1) == oracle_single(values, w)
        if n >= w + h:
            assert rows(values, w, h) == oracle_direct(values, w, h)
