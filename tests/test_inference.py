"""Inference edge cases shared by both networks: empty input and the
untrained guard of encode, decode and predict_batch."""
from __future__ import annotations

import numpy as np
import pytest

from candlecast.autoencoder import build_autoencoder, decode, encode
from candlecast.classifier import build_classifier, predict_batch
from candlecast.errors import UntrainedModelError


def _models():
    ae = build_autoencoder(5, 2, 12, seed=1, name="ae_price")
    clf = build_classifier(5, 2, 3, 12, seed=2, hidden_size=4, branch_channels=3)
    return ae, clf


def test_empty_input_keeps_its_shape():
    ae, clf = _models()
    ae.trained = clf.trained = True
    assert encode(ae, np.zeros((0, 5, 1, 12))).shape == (0, 2, 1, 12)
    assert decode(ae, np.zeros((0, 2, 1, 12))).shape == (0, 5, 1, 12)
    sigma = predict_batch(clf, np.zeros((0, 5, 12)), np.zeros((0, 2, 12)),
                          np.zeros((0, 3, 12)))
    assert sigma.shape == (0,)


def test_untrained_models_refuse_inference():
    ae, clf = _models()
    with pytest.raises(UntrainedModelError, match="ae_price"):
        encode(ae, np.zeros((1, 5, 1, 12)))
    with pytest.raises(UntrainedModelError, match="ae_price"):
        decode(ae, np.zeros((1, 2, 1, 12)))
    with pytest.raises(UntrainedModelError):
        predict_batch(clf, np.zeros((1, 5, 12)), np.zeros((1, 2, 12)),
                      np.zeros((1, 3, 12)))
