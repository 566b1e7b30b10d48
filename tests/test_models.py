import numpy as np
import pytest

from stockcast.checks import grad_check
from stockcast.errors import ArityMismatch, ShapeMismatch, WindowTooSmall
from stockcast.models import (
    build_cnn,
    build_gru,
    build_lstm,
    build_mlp,
    build_model,
    build_surrogate,
)
from stockcast.windowing import forecast


def zero_params(model):
    for _, p in model.params.items():
        p[:] = 0.0
    return model


def test_mlp_param_count():
    assert build_mlp(3, 1).n_params() == 353


def test_mlp_output_arity():
    model = build_mlp(30, 7)
    assert model.h == 7
    assert model(np.linspace(0, 1, 30)[None, :]).shape == (1, 7)


def test_mlp_zero_init_zero_output():
    model = zero_params(build_mlp(5, 2))
    assert np.allclose(model(np.zeros((1, 5))), 0.0)


def test_mlp_count_grows_with_w():
    assert build_mlp(15, 1).n_params() > build_mlp(3, 1).n_params()


def test_cnn_shape_arithmetic():
    # kernel 3: conv lengths 13, 11, pooled to 5; flattened 32 filters x 5 = 160
    model = build_cnn(15, 1)
    assert model.params["conv0.K"].shape == (32, 1, 3)
    assert model.params["fc0.W"].shape == (32, 160)


def test_cnn_window_too_small():
    with pytest.raises(WindowTooSmall, match="window 1 too small for kernel 1 \\+ pool 2"):
        build_cnn(1, 1)


def test_cnn_kernel_shrinks():
    model = build_cnn(3, 1)
    assert model.params["conv0.K"].shape == (32, 1, 1)
    assert model(np.array([[0.1, 0.2, 0.3]])).shape == (1, 1)


def test_cnn_output_arity():
    for h in (1, 7, 28):
        model = build_cnn(30, h)
        assert model.h == h
        assert model(np.zeros((2, 30))).shape == (2, h)


def test_recurrent_zero_init_zero_output():
    for build in (build_gru, build_lstm):
        model = zero_params(build(4, 2, hidden=(6, 5)))
        assert np.allclose(model(np.array([[0.5, -0.5, 1.0, 2.0]])), 0.0)


def test_gru_layer1_param_count():
    model = build_gru(3, 1)
    layer1 = sum(p.size for name, p in model.params.items()
                 if name.startswith("r0."))
    assert layer1 == 3 * (256 * 1 + 256 * 256 + 256) == 198144


def test_recurrent_count_independent_of_w():
    assert build_gru(3, 1, hidden=(8, 6)).n_params() == \
        build_gru(15, 1, hidden=(8, 6)).n_params()
    assert build_lstm(3, 1, hidden=(8, 6)).n_params() == \
        build_lstm(15, 1, hidden=(8, 6)).n_params()


def test_same_seed_identical_params():
    for kind in ("MLP", "CNN", "GRU", "LSTM"):
        a = build_surrogate(kind, 7, 2, seed=11)
        b = build_surrogate(kind, 7, 2, seed=11)
        assert [name for name, _ in a.params.items()] == [name for name, _ in b.params.items()]
        for name, p in a.params.items():
            assert np.array_equal(p, b.params[name])


@pytest.mark.parametrize("kind,gates", [("GRU", 3), ("LSTM", 4)])
def test_fused_gates_equal_per_gate_draws(kind, gates):
    # the per-gate initialization the fused tensors replaced: per layer, a
    # split PRNG draws each gate's W [n, n_in] then U [n, n], xavier-uniform
    def xavier(rng, shape):
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape)

    n1, n2 = 8, 6
    model = build_model(kind, 5, 2, seed=21, hidden=(n1, n2))
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(21).spawn(3)]
    for layer, (n_in, n) in enumerate(((1, n1), (n1, n2))):
        blocks = [(xavier(rngs[layer], (n, n_in)), xavier(rngs[layer], (n, n)))
                  for _ in range(gates)]
        assert np.array_equal(model.params[f"r{layer}.W"],
                              np.concatenate([W for W, _ in blocks]))
        assert np.array_equal(model.params[f"r{layer}.U"],
                              np.concatenate([U for _, U in blocks]))
        assert np.array_equal(model.params[f"r{layer}.b"], np.zeros(gates * n))
    limit = np.sqrt(6.0 / (n2 + 2))
    assert np.array_equal(model.params["out.W"],
                          rngs[2].uniform(-limit, limit, size=(2, n2)))


def test_different_seed_different_params():
    a = build_mlp(5, 1, seed=0)
    b = build_mlp(5, 1, seed=1)
    assert not np.array_equal(a.params["l0.W"], b.params["l0.W"])


@pytest.mark.parametrize("kind", ["MLP", "CNN", "GRU", "LSTM"])
def test_every_architecture_gradchecks(kind):
    rng = np.random.default_rng(12)
    model = build_surrogate(kind, 7, 2, seed=3)
    x = rng.uniform(0.1, 0.9, size=(2, 7))
    y = rng.uniform(0.1, 0.9, size=(2, 2))
    assert grad_check(model.chain, model.params, x, y) < 1e-4


def test_forward_arity_checks():
    model = build_mlp(5, 1)
    with pytest.raises(ArityMismatch):
        model(np.zeros(4))
    with pytest.raises(ArityMismatch):
        forecast(model, np.zeros((2, 4)), 1, "direct")


def test_build_model_kind_and_validation():
    model = build_model("MLP", 5, 2, seed=4)
    assert (model.kind, model.w, model.h) == ("MLP", 5, 2)
    with pytest.raises(ValueError, match="unknown architecture 'VAE'"):
        build_model("VAE", 5, 2)


def test_relu_output_clips_negative():
    # the MLP/CNN heads keep relu, so predictions are never negative
    rng = np.random.default_rng(13)
    model = build_mlp(5, 1, seed=2)
    assert (model(rng.uniform(0, 1, (20, 5))) >= 0.0).all()


@pytest.mark.parametrize("kind,shapes,message", [
    # padded to 16 rows, a 4-row state would pass for a 3-row batch
    ("GRU", [(4, 6), (4, 5)], r"initial h of shape \(4, 6\), expected \(3, 6\)"),
    # a GRU-shaped list lacks an LSTM's c arrays
    ("LSTM", [(3, 6), (3, 5)], "2 initial state arrays, expected 4"),
    # an LSTM-shaped list has two arrays too many for a GRU
    ("GRU", [(3, 6), (3, 6), (3, 5), (3, 5)], "4 initial state arrays, expected 2"),
    # the second layer would run from zero
    ("GRU", [(3, 6)], "1 initial state arrays, expected 2"),
    # an MLP has no state to start from
    ("MLP", [(9, 9)], "1 initial state arrays, expected 0"),
], ids=["GRU-4-rows", "LSTM-given-GRU-states", "GRU-given-LSTM-states",
        "GRU-given-one-layer", "MLP-given-a-state"])
def test_predict_names_the_callers_rows_for_a_wrong_state(kind, shapes, message):
    model = build_surrogate(kind, 4, 1)
    with pytest.raises(ShapeMismatch, match=message):
        model.predict(np.zeros((3, 4)), [np.zeros(shape) for shape in shapes])
