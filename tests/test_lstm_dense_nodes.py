"""The gate-major LSTM node and the one-node ``dense`` against references.

``_reference_sequence`` is the recurrence node as it was written with
(batch, 4h) row-block caches, every gate a strided column slice, and
``_reference_dense`` is ``dense`` as the composed matmul, transpose and add
graph ops: those stay the references.  Patched into ``nn.layers`` they run
behind the same public entries (``lstm_many_to_one``, ``lstm_step``,
``Dense``).  Values and every gradient (parameters, ``seq``, ``a0``, ``c0``,
the dense input) must agree bit for bit, compared as int64 views, on
ordinary, saturating, zero and -0.0 inputs, at batches 0, 1, 63 and 64,
with and without an input gradient, and under ``no_grad``.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from candlecast.classifier import build_classifier
from candlecast.errors import ConfigError, DataError, NonFiniteError
from candlecast.nn import (Dense, LstmCell, Tensor, lstm_many_to_one, lstm_step,
                           parameter)
from candlecast.nn import layers
from candlecast.nn.tensor import _node, matmul, no_grad

BATCHES = (0, 1, 63, 64)
INPUTS = ("normal", "saturating", "zeros", "negative_zero")


def _reference_sequence(cell, seq, a0, c0):
    """The recurrence node with (T, batch, 4h) caches and strided gate slices."""
    h = cell.hidden_size
    batch, steps, d = seq.shape
    weights = [cell.params[f"W_{g}"] for g in layers._GATES]
    biases = [cell.params[f"b_{g}"] for g in layers._GATES]
    w_all = np.concatenate([w.data for w in weights]).T
    b_all = np.concatenate([b.data for b in biases])

    def sigmoid(v):
        e = np.exp(-np.abs(v))
        return np.where(v >= 0, 1.0, e) / (1.0 + e)

    z = np.empty((steps, batch, h + d))
    z[:, :, h:] = seq.data.transpose(1, 0, 2)
    pre = np.empty((steps, batch, 4 * h))
    act = np.empty((steps, batch, 4 * h))
    cs = np.empty((steps + 1, batch, h))
    tanh_c = np.empty((steps, batch, h))
    cs[0] = c0.data
    a = a0.data
    for t in range(steps):
        z[t, :, :h] = a
        pre[t] = z[t] @ w_all + b_all
        act[t, :, :h] = np.tanh(pre[t, :, :h])
        act[t, :, h:] = sigmoid(pre[t, :, h:])
        cs[t + 1] = act[t, :, h:2 * h] * act[t, :, :h] + act[t, :, 2 * h:3 * h] * cs[t]
        tanh_c[t] = np.tanh(cs[t + 1])
        a = act[t, :, 3 * h:] * tanh_c[t]
    if not np.all(np.isfinite(pre)):
        raise NonFiniteError("non-finite gate pre-activation in the lstm")

    def backward(g):
        da, dc = g[:, :h], g[:, h:]
        gpre = np.empty_like(pre)
        w_a = w_all[:h].T
        for t in reversed(range(steps)):
            cand, u, f, o = (act[t, :, i * h:(i + 1) * h] for i in range(4))
            dc = dc + da * o * (1.0 - tanh_c[t] * tanh_c[t])
            gp = gpre[t]
            gp[:, :h] = dc * u * (1.0 - cand * cand)
            gp[:, h:2 * h] = dc * cand
            gp[:, 2 * h:3 * h] = dc * cs[t]
            gp[:, 3 * h:] = da * tanh_c[t]
            gp[:, h:] *= act[t, :, h:] * (1.0 - act[t, :, h:])
            da = gp @ w_a
            dc = dc * f
        flat = gpre.reshape(steps * batch, 4 * h)
        gw = z.reshape(steps * batch, h + d).T @ flat
        gb = flat.sum(axis=0)
        for i, (w, bias) in enumerate(zip(weights, biases)):
            if w.requires_grad:
                w._accumulate(gw[:, i * h:(i + 1) * h].T)
            if bias.requires_grad:
                bias._accumulate(gb[i * h:(i + 1) * h])
        if seq.requires_grad:
            seq._accumulate((gpre @ w_all[h:].T).transpose(1, 0, 2))
        if a0.requires_grad:
            a0._accumulate(da)
        if c0.requires_grad:
            c0._accumulate(dc)

    state = np.concatenate([a, cs[steps]], axis=1)
    return _node(state, (seq, a0, c0, *weights, *biases), backward)


def _reference_dense(x, weight, bias):
    """``dense`` as three graph nodes: matmul, transpose and add."""
    x, back = layers._entering(x, "dense", rank=2)
    return back(matmul(x, weight.transpose(1, 0)) + bias)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _values(rng, kind, shape) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "saturating":        # +-40 saturates every gate; 1e4 overflows none
        return rng.choice([-40.0, 40.0, -1e4, 1e4, 0.5], size=shape)
    if kind == "zeros":
        return np.zeros(shape)
    return np.full(shape, -0.0)


def _cell(rng, d=24, h=20) -> LstmCell:
    cell = LstmCell(d, h, rng)
    for p in cell.params.values():
        p.data += rng.normal(0.0, 0.1, p.shape)       # non-zero biases too
    cell.params["b_f"].data[:3] = -0.0
    return cell


def _run_both(monkeypatch, run, leaves, upstream):
    """``run()``'s values and the leaves' gradients, from the node and from
    the reference patched in."""
    results = []
    for patched in (False, True):
        with monkeypatch.context() as m:
            if patched:
                m.setattr(layers, "_lstm_sequence", _reference_sequence)
                m.setattr(layers, "dense", _reference_dense)
            for t in leaves:
                t.grad = None
            outs = run()
            outs = outs if isinstance(outs, tuple) else (outs,)
            if upstream is not None:
                sum(((o * Tensor(g)).sum() for o, g in zip(outs, upstream)),
                    Tensor(0.0)).backward()
            results.append(([o.data for o in outs], [t.grad for t in leaves]))
    return results


def _assert_same(results, tracked) -> None:
    (values, grads), (ref_values, ref_grads) = results
    for got, want in zip(values, ref_values):
        assert got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))
    for t, got, want in zip(tracked, grads, ref_grads):
        assert (got is None) == (want is None) == (not t.requires_grad)
        if got is not None:
            assert got.shape == want.shape
            np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("seq_grad", (True, False), ids=("seq_grad", "no_seq_grad"))
@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("steps", (2, 8))
@pytest.mark.parametrize("batch", BATCHES)
def test_lstm_node_matches_reference_bits(monkeypatch, batch, steps, kind, seq_grad):
    rng = np.random.default_rng(1000 * batch + 10 * steps + INPUTS.index(kind))
    cell = _cell(rng)
    seq = Tensor(_values(rng, kind, (batch, steps, 24)), requires_grad=seq_grad)
    leaves = [seq, *cell.params.values()]
    upstream = [rng.normal(size=(batch, 20))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # no overflow anywhere
        results = _run_both(monkeypatch, lambda: lstm_many_to_one(cell, seq), leaves, upstream)
    _assert_same(results, leaves)


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("batch", BATCHES)
def test_lstm_step_matches_reference_bits(monkeypatch, batch, kind):
    rng = np.random.default_rng(7 * batch + INPUTS.index(kind))
    cell = _cell(rng)
    a0 = parameter(_values(rng, kind, (batch, 20)))
    c0 = parameter(_values(rng, kind, (batch, 20)))
    x = Tensor(_values(rng, kind, (batch, 24)), requires_grad=True)
    leaves = [x, a0, c0, *cell.params.values()]
    upstream = [rng.normal(size=(batch, 20)), rng.normal(size=(batch, 20))]
    results = _run_both(monkeypatch, lambda: lstm_step(cell, a0, c0, x), leaves, upstream)
    _assert_same(results, leaves)


def test_lstm_inference_matches_reference_bits(monkeypatch):
    rng = np.random.default_rng(5)
    cell = _cell(rng)
    seq = rng.normal(size=(64, 8, 24))
    with no_grad():
        results = _run_both(monkeypatch, lambda: lstm_many_to_one(cell, seq), [], None)
    _assert_same(results, [])


def test_lstm_node_raises_where_reference_does(monkeypatch):
    rng = np.random.default_rng(6)
    cell = _cell(rng, 2, 3)
    cell.params["W_u"].data[:] = 1e300
    for patched in (False, True):
        with monkeypatch.context() as m:
            if patched:
                m.setattr(layers, "_lstm_sequence", _reference_sequence)
            with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                           match="gate pre-activation"):
                lstm_many_to_one(cell, np.full((4, 2), 1e10))


@pytest.mark.parametrize("x_grad", (True, False), ids=("x_grad", "no_x_grad"))
@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("batch", BATCHES)
def test_dense_node_matches_reference_bits(monkeypatch, batch, kind, x_grad):
    rng = np.random.default_rng(100 * batch + INPUTS.index(kind))
    for d_in, d_out in ((20, 10), (10, 1)):           # the classifier's head layers
        layer = Dense(d_in, d_out, rng)
        layer.bias.data[:] = rng.normal(size=d_out)
        x = Tensor(_values(rng, kind, (batch, d_in)), requires_grad=x_grad)
        leaves = [x, layer.weight, layer.bias]
        upstream = [rng.normal(size=(batch, d_out))]
        _assert_same(_run_both(monkeypatch, lambda: layer(x), leaves, upstream), leaves)
    single = Tensor(rng.normal(size=20), requires_grad=True)
    layer = Dense(20, 10, rng)
    results = _run_both(monkeypatch, lambda: layer(single), [single, layer.weight, layer.bias],
                        [rng.normal(size=10)])
    _assert_same(results, [single, layer.weight, layer.bias])


@pytest.mark.parametrize("sizes", ((0, 10), (-1, 3), (10, 0)), ids=str)
def test_dense_rejects_bad_sizes(sizes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="dense sizes"):
            Dense(*sizes, np.random.default_rng(0))


@pytest.mark.parametrize("sizes", ((0, 5), (5, 0)), ids=str)
def test_lstm_cell_rejects_bad_sizes(sizes):
    with pytest.raises(DataError, match="lstm sizes"):
        LstmCell(*sizes, np.random.default_rng(0))


@pytest.mark.parametrize("setting", ({"hidden_size": 0}, {"branch_channels": 0}), ids=str)
def test_classifier_rejects_bad_widths(setting):
    with pytest.raises(ConfigError, match=next(iter(setting)).replace("_", " ")):
        build_classifier(5, 4, 4, 24, **setting)
