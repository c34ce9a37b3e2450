"""Quality gate, plateau detection, and the classifier training loop."""
from __future__ import annotations

import math

import numpy as np
import pytest

from candlecast.classifier import build_classifier, predict_batch
from candlecast.errors import ConfigError, DataError, TrainingDiverged
from candlecast.trainer import (TrainConfig, has_converged, loss_base10,
                                quality_gate, read_history_csv, sigma_star,
                                train_classifier, write_history_csv)


def test_sigma_star_reference_points():
    assert sigma_star(0.5) == 0.31622776601683794
    assert sigma_star(0.07) == 0.8511380382023764
    assert sigma_star(0.0) == 1.0
    assert loss_base10(math.log(10.0)) == pytest.approx(1.0, abs=1e-15)
    # a model that assigns probability p to every true label has
    # loss_e = -ln p and sigma* = p
    for p in (0.85, 0.5, 0.99, 0.31):
        assert sigma_star(loss_base10(-math.log(p))) == pytest.approx(p, abs=1e-12)
    assert -math.log(0.85) == 0.16251892949777494
    with pytest.raises(DataError, match="non-negative"):
        sigma_star(-0.1)


def test_quality_gate():
    assert quality_gate(0.85, zeta=0.8)
    assert not quality_gate(0.31, zeta=0.8)
    assert quality_gate(0.8, zeta=0.8)                 # boundary counts as pass
    assert not quality_gate(0.5, zeta=0.8)             # coin-flip model
    with pytest.raises(ConfigError, match="sigma"):
        quality_gate(1.5, zeta=0.8)
    with pytest.raises(ConfigError, match="zeta"):
        quality_gate(0.5, zeta=-0.1)


def test_has_converged_slope_rule():
    steep = [0.5 - 1e-3 * i for i in range(10)]
    flat = [0.5 - 1e-5 * i for i in range(10)]
    rising = [0.5 + 1e-3 * i for i in range(10)]
    assert not has_converged(steep)
    assert has_converged(flat)
    assert has_converged(rising)
    # a constant-step sequence has every secant slope equal to the step;
    # powers of two keep the arithmetic exact, pinning the strict compare
    step = 2.0 ** -13
    exactly_at = [0.5 - step * i for i in range(10)]
    assert not has_converged(exactly_at, slope_threshold=-step)
    assert has_converged(exactly_at, slope_threshold=-step * 1.0000001)


def test_has_converged_needs_enough_history():
    assert not has_converged([0.5] * 9)
    assert has_converged([0.5] * 10)
    # only the latest `patience` losses matter
    assert has_converged([5.0, 4.0, 3.0] + [0.5] * 10)
    assert not has_converged([0.5] * 10 + [0.5 - 1e-3 * i for i in range(10)])
    with pytest.raises(ConfigError):
        has_converged([0.5] * 10, patience=1)
    with pytest.raises(ConfigError):
        has_converged([[0.5] * 10])


def test_has_converged_translation_invariant():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = list(rng.normal(0.5, 0.01, 12))
        for shift in (100.0, -3.0):
            shifted = [v + shift for v in x]
            assert has_converged(shifted) == has_converged(x)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(zeta=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(zeta=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    assert TrainConfig().zeta == 0.8
    assert TrainConfig().slope_threshold == -1e-4
    assert TrainConfig().max_epochs == 2000


@pytest.mark.parametrize("field,value,text", [
    ("learning_rate", math.nan, "learning rate must be positive"),
    ("learning_rate", math.inf, "learning rate must be positive"),
    ("slope_threshold", math.nan, "slope threshold must be finite"),
    ("slope_threshold", -math.inf, "slope threshold must be finite"),
])
def test_train_config_refuses_non_finite(field, value, text):
    with pytest.raises(ConfigError, match=text):
        TrainConfig(**{field: value})


def _separable(n, seed, window=6):
    rng = np.random.default_rng(seed)
    ohlcv = rng.normal(size=(n, 2, window))
    shift = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    ohlcv[:, 0, :] = rng.normal(scale=0.3, size=(n, window)) + shift[:, None]
    price = rng.normal(size=(n, 1, window))
    non_price = rng.normal(size=(n, 1, window))
    y = (ohlcv[:, 0, :].mean(axis=1) > 0.0).astype(float)
    return ohlcv, price, non_price, y


def test_trains_separable_to_well_trained():
    ohlcv, price, non_price, y = _separable(200, seed=31)
    model = build_classifier(2, 1, 1, 6, seed=32, hidden_size=6,
                             branch_channels=4, dropout_rate=0.0)
    config = TrainConfig(max_epochs=150, learning_rate=2e-2, batch_size=32)
    report = train_classifier(model, ohlcv, price, non_price, y, config, seed=33)
    assert report.status == "well_trained"
    assert report.well_trained
    assert report.sigma_star >= 0.8
    assert report.epochs_run == len(report.history)
    assert model.trained
    sigma = predict_batch(model, ohlcv, price, non_price)
    assert np.mean((sigma >= 0.5) == (y == 1.0)) > 0.95
    # the three history columns stay consistent
    for loss_e, l10, star in report.history:
        assert l10 == pytest.approx(loss_e / math.log(10.0), abs=1e-15)
        assert star == pytest.approx(10.0 ** (-l10), abs=1e-15)


def test_random_labels_stay_under_fitted():
    rng = np.random.default_rng(41)
    n = 120
    ohlcv = rng.normal(size=(n, 2, 6))
    price = rng.normal(size=(n, 1, 6))
    non_price = rng.normal(size=(n, 1, 6))
    y = (rng.random(n) < 0.5).astype(float)   # independent of every feature
    model = build_classifier(2, 1, 1, 6, seed=42, hidden_size=4,
                             branch_channels=2, dropout_rate=0.0)
    config = TrainConfig(max_epochs=25, learning_rate=1e-3, batch_size=32)
    report = train_classifier(model, ohlcv, price, non_price, y, config, seed=43)
    assert report.status == "under_fitted"
    assert not report.well_trained
    assert 0.4 < report.sigma_star < 0.65
    assert model.trained


def test_early_stop_needs_gate_and_plateau():
    ohlcv, price, non_price, y = _separable(64, seed=51)
    # zero head pins sigma at 0.5 and a vanishing learning rate keeps it
    # there, so every epoch's loss is exactly ln 2 (sigma* = 0.5) and the
    # plateau rule fires as soon as it has `patience` samples
    model = build_classifier(2, 1, 1, 6, seed=52)
    model.zero_head()
    config = TrainConfig(zeta=0.4, max_epochs=50, learning_rate=1e-300, patience=10)
    report = train_classifier(model, ohlcv, price, non_price, y, config, seed=53)
    assert report.epochs_run == 10          # gate passed, plateau stops the loop
    assert report.converged
    assert report.loss_e == pytest.approx(math.log(2.0), abs=1e-12)
    assert report.sigma_star == pytest.approx(0.5, abs=1e-12)
    assert report.status == "well_trained"

    # same plateau under a bar the model cannot clear: the loop must burn
    # through the full epoch budget and come back under-fitted
    model = build_classifier(2, 1, 1, 6, seed=52)
    model.zero_head()
    config = TrainConfig(zeta=0.8, max_epochs=15, learning_rate=1e-300, patience=10)
    report = train_classifier(model, ohlcv, price, non_price, y, config, seed=53)
    assert report.epochs_run == 15
    assert report.converged
    assert report.status == "under_fitted"


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_raises():
    ohlcv, price, non_price, y = _separable(48, seed=61)
    model = build_classifier(2, 1, 1, 6, seed=62)
    config = TrainConfig(max_epochs=50, learning_rate=1e120, batch_size=48)
    with pytest.raises(TrainingDiverged):
        train_classifier(model, ohlcv, price, non_price, y, config, seed=63)


def test_training_is_seed_deterministic():
    ohlcv, price, non_price, y = _separable(80, seed=71)
    config = TrainConfig(max_epochs=8, learning_rate=5e-3, batch_size=16)
    runs = []
    for seed in (5, 5, 6):
        model = build_classifier(2, 1, 1, 6, seed=72, hidden_size=4,
                                 branch_channels=2)
        runs.append(train_classifier(model, ohlcv, price, non_price, y,
                                     config, seed=seed).history)
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_input_validation():
    ohlcv, price, non_price, y = _separable(20, seed=81)
    model = build_classifier(2, 1, 1, 6, seed=82)
    with pytest.raises(DataError, match="labels"):
        train_classifier(model, ohlcv, price, non_price, y[:-1])
    with pytest.raises(DataError, match="0 or 1"):
        train_classifier(model, ohlcv, price, non_price, y + 0.5)
    with pytest.raises(DataError, match="batch"):
        train_classifier(model, ohlcv, price[:-1], non_price, y)
    with pytest.raises(DataError, match="empty"):
        train_classifier(model, ohlcv[:0], price[:0], non_price[:0], y[:0])
    with pytest.raises(DataError, match="non-finite"):
        bad = ohlcv.copy()
        bad[0, 0, 0] = np.nan
        train_classifier(model, bad, price, non_price, y)


def test_history_csv_round_trip(tmp_path):
    history = [(math.log(2.0), loss_base10(math.log(2.0)), 0.5000000000000001),
               (0.1, 0.043429448190325175, 0.9048374180359595)]
    path = tmp_path / "loss.csv"
    write_history_csv(history, path)
    text = path.read_text()
    assert text.splitlines()[0] == "epoch,loss_e,loss_10,sigma_star"
    assert text.splitlines()[1].startswith("1,")
    assert read_history_csv(path) == history
    bad = tmp_path / "bad.csv"
    bad.write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(DataError, match="not a loss-history"):
        read_history_csv(bad)
