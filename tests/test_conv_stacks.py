"""The conv-stack graph node against the composed public ops.

The autoencoder's encoder and decoder, and the classifier's three branches
together, each run as one ``nn.layers.conv_stacks`` node over the step
tuples the models list.  ``_composed`` interprets the same steps with
``conv1d_forward``, ``relu``, ``maxpool1d`` and ``upsample_nearest`` (and
``concat`` joins the branches): that stays the reference.  Outputs, the
loss and every gradient must agree bit for bit (compared as int64 views),
on inputs with ties, all-negative stretches, -0.0, zeros and constant
windows, whether or not the input tracks a gradient (in training it does
not, and the node then computes no input gradient).
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

# batch sizes, each also without an input gradient; the ids of the cases
# with one are the bare batch sizes
_BATCHES = [pytest.param(n, grad, id=str(n) if grad else f"{n}-no_input_grad")
            for grad in (True, False) for n in (0, 1, 64)]


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


_OPS = {"conv1d": lambda h, conv: conv(h), "relu": lambda h, _: relu(h),
        "maxpool1d": lambda h, k: maxpool1d(h, k, k),
        "upsample_nearest": lambda h, k: upsample_nearest(h, k)}


def _composed(x, steps):
    """The reference: ``steps`` as the composed public ops."""
    for kind, arg in steps:
        x = _OPS[kind](x, arg)
    return x




# -- autoencoder -------------------------------------------------------------

def _block(layer):
    return (("conv1d", layer), ("relu", None), ("maxpool1d", 2), ("upsample_nearest", 2))


def _ae_composed(model, x):
    code = _composed(x, model.encoder)
    return code, _composed(code, model.decoder)


def _nodes(model, x):
    code = model.encode_forward(x)
    return code, model.decode_forward(code)


def _one_stack(model, x):
    """The training path: ``reconstruct`` runs encoder and decoder as one stack."""
    out = model.reconstruct(x)
    return model.encode_forward(x), out


def _ae_pass(model, x, path, input_grad=True):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    xt = Tensor(x, requires_grad=input_grad)
    code, out = path(model, xt)
    loss = None
    if len(x):
        loss = mse_loss(out, Tensor(x))
        loss.backward()
        loss = loss.data
    return code.data, out.data, loss, _grads(params), xt.grad


def test_autoencoder_lists_its_blocks():
    model = build_autoencoder(10, 3, 8, seed=3)
    assert model.encoder == _block(model.enc1) + _block(model.enc2)
    assert model.decoder == _block(model.dec1) + _block(model.dec2) + (("conv1d", model.conv_f),)


@pytest.mark.parametrize("batch, input_grad", _BATCHES)
@pytest.mark.parametrize("channels", (8, 10, 16, 17))
@pytest.mark.parametrize("width", (2, 8, 24))
def test_autoencoder_nodes_match_composed_ops(width, channels, batch, input_grad):
    model = build_autoencoder(channels, 3, width, seed=channels * width + batch)
    _awkward_biases((model.enc1, model.enc2, model.dec1, model.dec2, model.conv_f))
    x = _awkward(np.random.default_rng(batch + width), (batch, channels, width))
    composed = _ae_pass(model, x, _ae_composed, input_grad)
    for path in (_nodes, _one_stack):
        node = _ae_pass(model, x, path, input_grad)
        for a, b in zip(node[:3], composed[:3]):
            if b is not None:
                _same(a, b)
        _assert_same_grads(node[3], composed[3])
        if batch:
            assert any(np.any(g) for g in node[3].values())
        if batch and input_grad:
            _same(node[4], composed[4])
        else:
            assert node[4] is None and composed[4] is None


def test_autoencoder_nodes_keep_single_instance_and_height_axis():
    model = build_autoencoder(10, 3, 8, seed=4)
    rng = np.random.default_rng(5)
    for x in (_awkward(rng, (10, 8)), _awkward(rng, (6, 10, 1, 8))):
        code, out = _nodes(model, x)
        ref_code, ref_out = _ae_composed(model, Tensor(x))
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
        for path in (_nodes, _one_stack, _ae_composed):
            with pytest.raises(NonFiniteError, match="entering maxpool1d$"):
                path(model, Tensor(x))


@pytest.mark.parametrize("layer", ("enc1", "enc2", "dec2"))
def test_autoencoder_blow_up_names_the_same_layer(layer):
    model = build_autoencoder(8, 3, 8, seed=7)
    getattr(model, layer).weight.data[:] = 1e308
    x = np.abs(np.random.default_rng(8).normal(size=(4, 8, 8))) + 1.0
    for path in (_nodes, _one_stack, _ae_composed):
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match="entering maxpool1d$"):
            path(model, Tensor(x))


# -- classifier ----------------------------------------------------------------

_CHANNELS = (5, 4, 3)


def _composed_stacks(stacks):
    """``conv_stacks`` for (b, c, l) inputs, from the reference interpreter."""
    outs = [_composed(x, steps) for x, steps in stacks]
    return concat(outs, axis=1).transpose(0, 2, 1), [lambda y: y] * len(outs)


def _classifier_pass(model, groups, labels, input_grad=True):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    ts = [Tensor(g, requires_grad=input_grad) for g in groups]
    seq, _ = classifier.conv_stacks([(t, b.steps) for b, t in zip(model.branches, ts)])
    if not len(labels):
        return seq.data, None, None, {}, []
    sigma = forward(model, *ts)
    loss = bce_loss(sigma, labels)
    loss.backward()
    return seq.data, sigma.data, loss.data, _grads(params), [t.grad for t in ts]


def test_branch_lists_its_steps():
    branch = build_classifier(*_CHANNELS, 12, seed=8).branches[0]
    assert branch.steps == (("maxpool1d", 3), ("conv1d", branch.conv1), ("relu", None),
                            ("conv1d", branch.conv2), ("relu", None))


@pytest.mark.parametrize("batch, input_grad", _BATCHES)
@pytest.mark.parametrize("window", (6, 12, 24))
def test_branch_node_matches_composed_branches(window, batch, input_grad, monkeypatch):
    model = build_classifier(*_CHANNELS, window, seed=window + batch,
                             hidden_size=6, branch_channels=4)
    _awkward_biases([c for b in model.branches for c in (b.conv1, b.conv2)])
    rng = np.random.default_rng(window * batch)
    groups = [_awkward(rng, (batch, c, window)) for c in _CHANNELS]
    labels = (rng.random(batch) < 0.5).astype(float)
    node = _classifier_pass(model, groups, labels, input_grad)
    monkeypatch.setattr(classifier, "conv_stacks", _composed_stacks)
    composed = _classifier_pass(model, groups, labels, input_grad)
    assert node[0].shape == (batch, window // 3, 12)
    for a, b in zip(node[:3], composed[:3]):
        if b is not None:
            _same(a, b)
    _assert_same_grads(node[3], composed[3])
    for a, b in zip(node[4], composed[4]):
        if input_grad:
            _same(a, b)
        else:
            assert a is None and b is None


def test_branch_keeps_single_instance_and_height_axis():
    model = build_classifier(*_CHANNELS, 12, seed=9)
    branch = model.branches[0]
    rng = np.random.default_rng(10)
    for x in (_awkward(rng, (5, 12)), _awkward(rng, (6, 5, 1, 12))):
        out = branch(x)
        ref = _composed(x, branch.steps)
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
    for path in (None, _composed_stacks):
        if path is not None:
            monkeypatch.setattr(classifier, "conv_stacks", path)
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match=f"entering {where}$"):
            forward(model, *groups)
