"""Autoencoder shape contract, training behavior, and the correlation claim."""
from __future__ import annotations

import numpy as np
import pytest

from candlecast.autoencoder import (AutoencoderModel, build_autoencoder, decode,
                                    encode, train_autoencoder)
from candlecast.errors import (ConfigError, DataError, TrainingDiverged,
                               UntrainedModelError)


def correlated_batch(n, channels, width, seed):
    """Channels are scaled/shifted copies of one latent sinusoid per instance."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 2 * np.pi, width)
    phase = rng.uniform(0, 2 * np.pi, n)
    base = np.sin(t[None, :] + phase[:, None])
    scales = rng.uniform(0.5, 1.5, channels)
    offsets = rng.uniform(-0.2, 0.2, channels)
    X = base[:, None, :] * scales[None, :, None] + offsets[None, :, None]
    return X + rng.normal(0, 0.02, X.shape)


def test_build_schedule_and_code_shape():
    model = build_autoencoder(12, 5, 24, seed=0)
    assert model.mid_channels == 9  # ceil((12+5)/2)
    assert model.parameter_count() > 0
    x = np.random.default_rng(1).normal(size=(3, 12, 1, 24))
    model.trained = True
    code = encode(model, x)
    assert code.shape == (3, 5, 1, 24)
    out = decode(model, code)
    assert out.shape == x.shape


def test_reconstruct_shape_without_height_axis():
    model = build_autoencoder(6, 2, 8, seed=2)
    x = np.random.default_rng(3).normal(size=(4, 6, 8))
    recon = model.reconstruct(x)
    assert recon.shape == (4, 6, 8)


def test_build_rejections():
    with pytest.raises(ConfigError):
        build_autoencoder(5, 5, 24)
    with pytest.raises(ConfigError):
        build_autoencoder(5, 0, 24)
    with pytest.raises(ConfigError, match="window"):
        build_autoencoder(5, 2, 23)
    model = build_autoencoder(6, 3, 8, seed=4)
    with pytest.raises(DataError):
        model.reconstruct(np.zeros((2, 5, 8)))
    with pytest.raises(DataError):
        model.reconstruct(np.zeros((2, 6, 10)))


def test_training_rejects_height_above_one():
    model = build_autoencoder(4, 2, 8, seed=5)
    batch = np.stack([correlated_batch(20, 4, 8, 6)] * 2, axis=2)  # (n, c, 2, w)
    with pytest.raises(DataError, match="height 1"):
        train_autoencoder(model, batch, epochs=1)
    assert model.loss_history == []


def test_zero_epochs_returns_untrained_model():
    model = build_autoencoder(4, 2, 8, seed=5)
    history = train_autoencoder(model, correlated_batch(20, 4, 8, 6), epochs=0)
    assert history == []
    assert not model.trained
    with pytest.raises(UntrainedModelError):
        encode(model, np.zeros((1, 4, 8)))
    with pytest.raises(UntrainedModelError):
        decode(model, np.zeros((1, 2, 8)))


def test_training_reduces_loss_by_10x_on_correlated_channels():
    model = build_autoencoder(4, 2, 8, seed=7)
    X = correlated_batch(240, 4, 8, seed=8)
    history = train_autoencoder(model, X, epochs=200, lr=3e-3, seed=9)
    assert model.trained
    assert history[-1] < 0.1 * history[0]


def test_correlated_beats_iid_noise_at_equal_budget():
    width, channels, n, epochs = 8, 4, 240, 60
    corr = correlated_batch(n, channels, width, seed=10)
    iid = np.random.default_rng(11).normal(size=(n, channels, width))
    m_corr = build_autoencoder(channels, 2, width, seed=12)
    m_iid = build_autoencoder(channels, 2, width, seed=12)
    h_corr = train_autoencoder(m_corr, corr, epochs=epochs, lr=3e-3, seed=13,
                               improve_tol=0.0)
    h_iid = train_autoencoder(m_iid, iid, epochs=epochs, lr=3e-3, seed=13,
                              improve_tol=0.0)
    # equal budget, but shared structure compresses and iid noise cannot
    assert h_corr[-1] < h_iid[-1]


def test_training_is_deterministic():
    X = correlated_batch(100, 4, 8, seed=14)
    runs = []
    for _ in range(2):
        model = build_autoencoder(4, 2, 8, seed=15)
        history = train_autoencoder(model, X, epochs=12, seed=16)
        runs.append((history, {k: p.data.copy() for k, p in model.parameters().items()}))
    assert runs[0][0] == runs[1][0]
    for k in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_raises():
    model = build_autoencoder(4, 2, 8, seed=24)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train_autoencoder(model, correlated_batch(60, 4, 8, seed=25), epochs=5,
                          lr=1e150, seed=26)


def test_encode_deterministic_inference():
    model = build_autoencoder(4, 2, 8, seed=17)
    train_autoencoder(model, correlated_batch(60, 4, 8, seed=18), epochs=3, seed=19)
    x = correlated_batch(10, 4, 8, seed=20)
    np.testing.assert_array_equal(encode(model, x), encode(model, x))


def test_encode_builds_no_graph():
    model = build_autoencoder(4, 2, 8, seed=17)
    train_autoencoder(model, correlated_batch(60, 4, 8, seed=18), epochs=1, seed=19)
    outputs = []
    forward = model.encode_forward
    model.encode_forward = lambda x: outputs.append(forward(x)) or outputs[-1]
    x = correlated_batch(10, 4, 8, seed=20)
    codes = encode(model, x)
    assert outputs[0]._parents == () and not outputs[0].requires_grad
    # inference values are those of the recording forward pass
    np.testing.assert_array_equal(codes, forward(x).data)
    assert forward(x).requires_grad
    # more instances than one encode pass takes: chunking changes no code
    x = correlated_batch(600, 4, 8, seed=21)
    np.testing.assert_allclose(encode(model, x), forward(x).data, rtol=0.0, atol=1e-12)
    assert len(outputs) == 4


def test_early_stop_on_plateau():
    model = build_autoencoder(4, 2, 8, seed=21)
    X = correlated_batch(60, 4, 8, seed=22)
    # an impossible improvement bar stops training at the first comparison
    history = train_autoencoder(model, X, epochs=500, seed=23, improve_tol=1e9,
                                patience=10)
    assert len(history) == 20


def test_training_input_validation():
    model = build_autoencoder(4, 2, 8, seed=24)
    with pytest.raises(DataError):
        train_autoencoder(model, np.zeros((0, 4, 8)))
    with pytest.raises(DataError):
        train_autoencoder(model, np.full((5, 4, 8), np.nan))
    with pytest.raises(DataError):
        train_autoencoder(model, np.zeros((5, 3, 8)))
    with pytest.raises(ConfigError):
        train_autoencoder(model, np.zeros((5, 4, 8)), epochs=-1)


@pytest.mark.parametrize("key, value, match", [
    ("batch_size", 0, "batch size"), ("batch_size", -3, "batch size"),
    ("lr", -1.0, "learning rate"), ("lr", 0.0, "learning rate"),
    ("patience", 0, "patience")])
def test_training_refuses_bad_settings(key, value, match):
    model = build_autoencoder(4, 2, 8, seed=24)
    with pytest.raises(ConfigError, match=match):
        train_autoencoder(model, correlated_batch(5, 4, 8, seed=1), epochs=3, **{key: value})
    assert not model.trained and model.loss_history == []


def test_loss_history_accumulates_across_calls():
    model = build_autoencoder(4, 2, 8, seed=25)
    X = correlated_batch(60, 4, 8, seed=26)
    train_autoencoder(model, X, epochs=3, seed=27)
    train_autoencoder(model, X, epochs=2, seed=28)
    assert len(model.loss_history) == 5


def test_parameters_are_named_and_complete():
    model = build_autoencoder(6, 3, 8, seed=29, name="price_ae")
    params = model.parameters()
    assert all(k.startswith("price_ae.") for k in params)
    assert len(params) == 10  # five convs, weight + bias each
    mid = model.mid_channels
    assert params["price_ae.enc1.weight"].shape == (mid, 6, 3)
    assert params["price_ae.conv_f.weight"].shape == (6, 6, 3)
