"""Conv-branch LSTM classifier: shapes, the 0.5 zero-head anchor, gradients,
determinism, and a quick learnability check on separable data."""
from __future__ import annotations

import numpy as np
import pytest

from candlecast.classifier import (ClassifierModel, build_classifier, forward,
                                   predict_batch)
from candlecast.errors import ConfigError, DataError, UntrainedModelError
from candlecast.nn import Adam, Tensor, bce_loss

from conftest import gradcheck


def _inputs(rng, batch, channels, window):
    return [rng.normal(size=(batch, c, window)) for c in channels]


def test_branch_and_sequence_shapes():
    model = build_classifier(5, 4, 3, 24, seed=0)
    rng = np.random.default_rng(1)
    ohlcv, price, non_price = _inputs(rng, 7, (5, 4, 3), 24)
    out = model.branches[0](Tensor(ohlcv))
    assert out.shape == (7, 8, 8)          # pooled 24 -> 8, lifted to 8 channels
    sigma = forward(model, ohlcv, price, non_price)
    assert sigma.shape == (7,)
    assert np.all((sigma.data > 0.0) & (sigma.data < 1.0))
    assert model.seq_len == 8
    assert model.lstm.input_size == 24
    assert model.lstm.hidden_size == 20


def test_accepts_height_axis():
    model = build_classifier(2, 2, 2, 6, seed=3)
    rng = np.random.default_rng(4)
    flat = _inputs(rng, 5, (2, 2, 2), 6)
    tall = [x[:, :, None, :] for x in flat]
    a = forward(model, *flat).data
    b = forward(model, *tall).data
    np.testing.assert_array_equal(a, b)


def test_zero_head_pins_output_at_half():
    model = build_classifier(3, 2, 2, 12, seed=5)
    model.zero_head()
    rng = np.random.default_rng(6)
    sigma = forward(model, *_inputs(rng, 9, (3, 2, 2), 12))
    np.testing.assert_array_equal(sigma.data, np.full(9, 0.5))


def test_window_must_divide_by_three():
    with pytest.raises(ConfigError, match="divisible by 3"):
        build_classifier(5, 4, 3, 25)
    for window in (0, -3):
        with pytest.raises(ConfigError, match="at least 3"):
            build_classifier(5, 4, 3, window)
    with pytest.raises(ConfigError, match="channel"):
        build_classifier(5, 0, 3, 24)
    with pytest.raises(ConfigError, match="dropout"):
        build_classifier(5, 4, 3, 24, dropout_rate=1.0)


def test_forward_validates_group_shapes():
    model = build_classifier(5, 4, 3, 24, seed=0)
    rng = np.random.default_rng(2)
    ohlcv, price, non_price = _inputs(rng, 4, (5, 4, 3), 24)
    with pytest.raises(DataError, match="price_code"):
        forward(model, ohlcv, non_price, non_price)
    with pytest.raises(DataError, match="width"):
        forward(model, ohlcv[:, :, :23], price[:, :, :23], non_price[:, :, :23])
    with pytest.raises(DataError, match="batch"):
        forward(model, ohlcv, price[:3], non_price)
    with pytest.raises(DataError, match="height"):
        forward(model, ohlcv[:, :, None, :].repeat(2, axis=2), price, non_price)


def test_parameter_inventory():
    model = build_classifier(5, 4, 3, 24, seed=0)
    params = model.parameters()
    # 3 branches x 2 convs x (w, b) + 4 lstm gates x (W, b) + 2 dense x (w, b)
    assert len(params) == 12 + 8 + 4
    assert params["clf.lstm.W_c"].shape == (20, 44)
    assert params["clf.fc2.weight"].shape == (1, 10)
    assert all(p.requires_grad for p in params.values())


def test_end_to_end_gradients():
    model = build_classifier(2, 2, 2, 6, seed=11, hidden_size=3,
                             branch_channels=2, dropout_rate=0.3)
    rng = np.random.default_rng(12)
    ohlcv, price, non_price = (Tensor(x, requires_grad=True)
                               for x in _inputs(rng, 2, (2, 2, 2), 6))
    y = np.array([1.0, 0.0])
    tensors = list(model.parameters().values()) + [ohlcv, price, non_price]

    def build():
        return bce_loss(forward(model, ohlcv, price, non_price), y)

    worst = gradcheck(build, tensors)
    assert worst < 1e-4

    def build_with_dropout():
        return bce_loss(forward(model, ohlcv, price, non_price,
                                training=True, rng=77), y)

    assert gradcheck(build_with_dropout, tensors) < 1e-4


def test_inference_deterministic_training_masks_vary():
    model = build_classifier(3, 2, 2, 12, seed=8)
    rng = np.random.default_rng(9)
    xs = _inputs(rng, 8, (3, 2, 2), 12)
    a = forward(model, *xs).data
    b = forward(model, *xs).data
    np.testing.assert_array_equal(a, b)
    t1 = forward(model, *xs, training=True, rng=1).data
    t1_again = forward(model, *xs, training=True, rng=1).data
    t2 = forward(model, *xs, training=True, rng=2).data
    np.testing.assert_array_equal(t1, t1_again)
    assert np.any(t1 != t2)


def test_predict_batch_guard_and_chunking():
    model = build_classifier(3, 2, 2, 12, seed=10)
    rng = np.random.default_rng(13)
    xs = _inputs(rng, 11, (3, 2, 2), 12)
    with pytest.raises(UntrainedModelError):
        predict_batch(model, *xs)
    model.trained = True
    full = predict_batch(model, *xs)
    # chunk size only changes BLAS summation order, never the math
    np.testing.assert_allclose(predict_batch(model, *xs, chunk=3), full,
                               rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(full, predict_batch(model, *xs))
    np.testing.assert_array_equal(full, forward(model, *xs).data)


def test_learns_separable_rule():
    # label = 1 iff the first raw channel's window mean is positive; the
    # other channels are noise, so the branches must isolate the signal
    rng = np.random.default_rng(21)
    n = 160
    ohlcv = rng.normal(size=(n, 2, 6))
    shift = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    ohlcv[:, 0, :] = rng.normal(scale=0.3, size=(n, 6)) + shift[:, None]
    price = rng.normal(size=(n, 1, 6))
    non_price = rng.normal(size=(n, 1, 6))
    y = (ohlcv[:, 0, :].mean(axis=1) > 0.0).astype(float)
    model = build_classifier(2, 1, 1, 6, seed=22, hidden_size=6,
                             branch_channels=4, dropout_rate=0.0)
    opt = Adam(model.parameters(), lr=2e-2)
    for _ in range(250):
        opt.zero_grad()
        loss = bce_loss(forward(model, ohlcv, price, non_price, training=True, rng=0), y)
        loss.backward()
        opt.step()
    model.trained = True
    sigma = predict_batch(model, ohlcv, price, non_price)
    accuracy = np.mean((sigma >= 0.5) == (y == 1.0))
    assert accuracy > 0.95
