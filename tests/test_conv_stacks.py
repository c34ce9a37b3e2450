"""The conv-stack graph nodes against the composed public ops.

The autoencoder's encoder and decoder and the classifier's three branches
each run as one node with a hand-written backward.  The composition of
``conv1d_forward``, ``relu``, ``maxpool1d``, ``upsample_nearest`` and
``concat`` they replace stays the reference: outputs, the loss and every
gradient must agree bit for bit (compared as int64 views), on inputs with
ties, all-negative stretches, -0.0, zeros and constant windows.
"""
from __future__ import annotations

import numpy as np
import pytest

from candlecast import classifier
from candlecast.autoencoder import build_autoencoder
from candlecast.classifier import build_classifier, forward
from candlecast.errors import NonFiniteError
from candlecast.nn import (Tensor, bce_loss, concat, maxpool1d, mse_loss, relu,
                           upsample_nearest)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _same(a, b) -> None:
    np.testing.assert_array_equal(_bits(a), _bits(b))


def _awkward(rng, shape) -> np.ndarray:
    """Normal values plus the cases a fused pool can get wrong: neighbours
    that tie, all-negative instances, -0.0, and constant windows."""
    x = rng.normal(size=shape)
    x[0::5, ..., 1::2] = x[0::5, ..., 0::2]
    x[1::5] = -np.abs(x[1::5])
    x[2::5] = -0.0
    x[3::5] = x[3::5, ..., :1]
    return x


def _awkward_biases(convs) -> None:
    """A dead channel (all pre-activations negative) and a -0.0 bias per conv."""
    for conv in convs:
        conv.bias.data[0] = -50.0
        conv.bias.data[-1] = -0.0


def _grads(params) -> dict:
    return {k: p.grad for k, p in params.items()}


def _assert_same_grads(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for k in a:
        assert (a[k] is None) == (b[k] is None), k
        if a[k] is not None:
            _same(a[k], b[k])


# -- autoencoder -------------------------------------------------------------

def _block(layer, h):
    return upsample_nearest(maxpool1d(relu(layer(h)), 2, 2), 2)


def _composed(model, x):
    code = _block(model.enc2, _block(model.enc1, x))
    return code, model.conv_f(_block(model.dec2, _block(model.dec1, code)))


def _nodes(model, x):
    code = model.encode_forward(x)
    return code, model.decode_forward(code)


def _ae_pass(model, x, path):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    xt = Tensor(x, requires_grad=True)
    code, out = path(model, xt)
    loss = None
    if len(x):
        loss = mse_loss(out, Tensor(x))
        loss.backward()
        loss = loss.data
    return code.data, out.data, loss, _grads(params), xt.grad


@pytest.mark.parametrize("batch", (0, 1, 64))
@pytest.mark.parametrize("channels", (8, 10, 16, 17))
@pytest.mark.parametrize("width", (2, 8, 24))
def test_autoencoder_nodes_match_composed_ops(width, channels, batch):
    model = build_autoencoder(channels, 3, width, seed=channels * width + batch)
    _awkward_biases((model.enc1, model.enc2, model.dec1, model.dec2, model.conv_f))
    x = _awkward(np.random.default_rng(batch + width), (batch, channels, width))
    node = _ae_pass(model, x, _nodes)
    composed = _ae_pass(model, x, _composed)
    for a, b in zip(node[:3], composed[:3]):
        if b is not None:
            _same(a, b)
    _assert_same_grads(node[3], composed[3])
    if batch:
        _same(node[4], composed[4])
        assert any(np.any(g) for g in node[3].values())


def test_autoencoder_nodes_keep_single_instance_and_height_axis():
    model = build_autoencoder(10, 3, 8, seed=4)
    rng = np.random.default_rng(5)
    for x in (_awkward(rng, (10, 8)), _awkward(rng, (6, 10, 1, 8))):
        code, out = _nodes(model, x)
        ref_code, ref_out = _composed(model, Tensor(x))
        assert code.shape == ref_code.shape and out.shape == ref_out.shape == x.shape
        _same(code.data, ref_code.data)
        _same(out.data, ref_out.data)
        _same(model.reconstruct(x).data, ref_out.data)


def test_autoencoder_pool_sees_inf_beside_nan():
    # an infinite tap-0 weight gives channel 0 the pairs (NaN, +inf), (NaN,
    # NaN), ...: relu maps the NaN to 0 and keeps the +inf, which must
    # raise; a pool before the relu would keep the first NaN and hide it
    model = build_autoencoder(8, 3, 8, seed=6)
    model.enc1.weight.data[0, 0, 0] = np.inf
    x = np.random.default_rng(7).normal(size=(2, 8, 8))
    x[:, 0] = 0.0
    x[:, 0, 0] = 1.0
    with np.errstate(all="ignore"):
        pre = model.enc1(x).data[:, 0]
        assert np.isnan(pre[:, 0::2]).all() and (pre[:, 1] == np.inf).all()
        assert np.isnan(pre[:, 3::2]).all()
        for path in (_nodes, _composed):
            with pytest.raises(NonFiniteError, match="entering maxpool1d$"):
                path(model, Tensor(x))


@pytest.mark.parametrize("layer", ("enc1", "enc2", "dec2"))
def test_autoencoder_blow_up_names_the_same_layer(layer):
    model = build_autoencoder(8, 3, 8, seed=7)
    getattr(model, layer).weight.data[:] = 1e308
    x = np.abs(np.random.default_rng(8).normal(size=(4, 8, 8))) + 1.0
    for path in (_nodes, _composed):
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match="entering maxpool1d$"):
            path(model, Tensor(x))


# -- classifier ----------------------------------------------------------------

_CHANNELS = (5, 4, 3)


def _composed_branches(branches, groups):
    outs = [relu(b.conv2(relu(b.conv1(maxpool1d(g, 3, 3)))))
            for b, g in zip(branches, groups)]
    return concat(outs, axis=1).transpose(0, 2, 1)


def _classifier_pass(model, groups, labels):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    ts = [Tensor(g, requires_grad=True) for g in groups]
    seq = classifier._branches(model.branches, ts)
    if not len(labels):
        return seq.data, None, None, {}, []
    sigma = forward(model, *ts)
    loss = bce_loss(sigma, labels)
    loss.backward()
    return seq.data, sigma.data, loss.data, _grads(params), [t.grad for t in ts]


@pytest.mark.parametrize("batch", (0, 1, 64))
@pytest.mark.parametrize("window", (6, 12, 24))
def test_branch_node_matches_composed_branches(window, batch, monkeypatch):
    model = build_classifier(*_CHANNELS, window, seed=window + batch,
                             hidden_size=6, branch_channels=4)
    _awkward_biases([c for b in model.branches for c in (b.conv1, b.conv2)])
    rng = np.random.default_rng(window * batch)
    groups = [_awkward(rng, (batch, c, window)) for c in _CHANNELS]
    labels = (rng.random(batch) < 0.5).astype(float)
    node = _classifier_pass(model, groups, labels)
    monkeypatch.setattr(classifier, "_branches", _composed_branches)
    composed = _classifier_pass(model, groups, labels)
    assert node[0].shape == (batch, window // 3, 12)
    for a, b in zip(node[:3], composed[:3]):
        if b is not None:
            _same(a, b)
    _assert_same_grads(node[3], composed[3])
    for a, b in zip(node[4], composed[4]):
        _same(a, b)


def test_branch_keeps_single_instance_and_height_axis():
    model = build_classifier(*_CHANNELS, 12, seed=9)
    branch = model.branches[0]
    rng = np.random.default_rng(10)
    for x in (_awkward(rng, (5, 12)), _awkward(rng, (6, 5, 1, 12))):
        out = branch(x)
        ref = relu(branch.conv2(relu(branch.conv1(maxpool1d(x, 3, 3)))))
        assert out.shape == ref.shape
        _same(out.data, ref.data)


@pytest.mark.parametrize("case, where", [
    ("input", "maxpool1d"), ("conv1", "conv1d"), ("conv2", "lstm_many_to_one")])
def test_branch_blow_up_names_the_same_layer(case, where, monkeypatch):
    model = build_classifier(*_CHANNELS, 12, seed=11)
    rng = np.random.default_rng(12)
    groups = [np.abs(rng.normal(size=(4, c, 12))) + 1.0 for c in _CHANNELS]
    if case != "conv2":
        groups[2][0, 0, 0] = np.nan      # checked only after branch 1
    if case == "input":
        groups[1][0, 0, 0] = np.inf
    else:
        getattr(model.branches[1], case).weight.data[:] = 1e308
    for path in (None, _composed_branches):
        if path is not None:
            monkeypatch.setattr(classifier, "_branches", path)
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match=f"entering {where}$"):
            forward(model, *groups)
