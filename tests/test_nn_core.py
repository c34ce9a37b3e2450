"""Tensor core and layers: shape laws, hand oracles, gradient checks.

Frozen values:
  - zero-weight recurrent step with c_prev=1: c=0.5, a=0.5*tanh(0.5)=0.23105857863000487
  - bce([0.85], [1]) = -ln 0.85 = 0.16251892949777494
  - bce([0.5,0.5], [1,0]) = ln 2
"""
from __future__ import annotations

import struct

import numpy as np
import pytest

from candlecast.errors import ArtifactError, DataError, NonFiniteError
from candlecast.nn import (Adam, Conv1d, ConvSpec, Dense, LstmCell, Tensor,
                           adam_step, bce_loss, conv1d_forward, conv1d_out_len,
                           dense, dropout, load_checkpoint, lstm_many_to_one,
                           lstm_step, maxpool1d, mse_loss, parameter,
                           restore_parameters, same_padding, save_checkpoint,
                           sigmoid, softmax, upsample_nearest)
from candlecast.nn.tensor import concat, no_grad, relu, stable_sigmoid, tanh

from candlecast.autoencoder import build_autoencoder
from candlecast.classifier import build_classifier, forward

from conftest import gradcheck


def brute_out_len(l_in, k, s, p, d):
    n, pos = 0, 0
    while pos + d * (k - 1) <= l_in + 2 * p - 1:
        n += 1
        pos += s
    return n


def conv_oracle(x, w, b, stride, padding, dilation):
    """Direct nested-loop cross-correlation on (B, C, L)."""
    bs, c_in, l = x.shape
    c_out, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    l_out = brute_out_len(l, k, stride, padding, dilation)
    out = np.zeros((bs, c_out, l_out))
    for n in range(bs):
        for d in range(c_out):
            for i in range(l_out):
                acc = b[d]
                for c in range(c_in):
                    for j in range(k):
                        acc += w[d, c, j] * xp[n, c, i * stride + j * dilation]
                out[n, d, i] = acc
    return out


def test_out_len_examples():
    assert conv1d_out_len(ConvSpec(1, 1, 3, 1, 1), 24) == 24
    assert conv1d_out_len(ConvSpec(1, 1, 3, 3, 0), 24) == 8
    assert same_padding(5) == 2
    assert same_padding(3) == 1
    with pytest.raises(DataError):
        conv1d_out_len(ConvSpec(1, 1, 7), 3)


def test_out_len_matches_enumerator():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(1, 8))
        s = int(rng.integers(1, 5))
        p = int(rng.integers(0, 4))
        d = int(rng.integers(1, 4))
        l_in = int(rng.integers(1, 40))
        expected = brute_out_len(l_in, k, s, p, d)
        spec = ConvSpec(1, 1, k, s, p, d)
        if expected < 1:
            with pytest.raises(DataError):
                conv1d_out_len(spec, l_in)
        else:
            assert conv1d_out_len(spec, l_in) == expected


def test_width_preserving_configuration():
    for k in (1, 3, 5, 7):
        spec = ConvSpec(1, 1, k, 1, same_padding(k))
        for l in range(k, 30):
            assert conv1d_out_len(spec, l) == l


def test_conv_identity_and_constant():
    x = Tensor(np.random.default_rng(1).normal(size=(1, 5)))
    w = Tensor(np.ones((1, 1, 1)))
    b = Tensor(np.zeros(1))
    out = conv1d_forward(x, ConvSpec(1, 1, 1), w, b)
    np.testing.assert_array_equal(out.data, x.data)
    w0 = Tensor(np.zeros((2, 1, 3)))
    b7 = Tensor(np.array([7.0, -2.0]))
    out = conv1d_forward(x, ConvSpec(1, 2, 3, 1, 1), w0, b7)
    assert np.all(out.data[0] == 7.0) and np.all(out.data[1] == -2.0)


def test_conv_matches_nested_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 1, 6))
    w = rng.normal(size=(3, 1, 3))
    b = rng.normal(size=3)
    out = conv1d_forward(Tensor(x), ConvSpec(1, 3, 3, 1, 1), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, conv_oracle(x, w, b, 1, 1, 1), atol=1e-12)


def test_conv_random_geometry_against_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        d = int(rng.integers(1, 3))
        l = int(rng.integers(k * d + 2, 14))
        if brute_out_len(l, k, s, p, d) < 1:
            continue
        x = rng.normal(size=(2, c_in, l))
        w = rng.normal(size=(c_out, c_in, k))
        b = rng.normal(size=c_out)
        out = conv1d_forward(Tensor(x), ConvSpec(c_in, c_out, k, s, p, d), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv_oracle(x, w, b, s, p, d), atol=1e-11)


def test_conv_height_axis_round_trip():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 2, 1, 8))
    conv = Conv1d(ConvSpec(2, 5, 3, 1, 1), rng)
    out = conv(Tensor(x))
    assert out.shape == (3, 5, 1, 8)
    flat = conv(Tensor(x[:, :, 0, :]))
    np.testing.assert_array_equal(out.data[:, :, 0, :], flat.data)


def test_conv_shape_errors():
    rng = np.random.default_rng(5)
    conv = Conv1d(ConvSpec(2, 4, 3, 1, 1), rng)
    with pytest.raises(DataError, match="channels"):
        conv(Tensor(np.zeros((1, 3, 8))))
    with pytest.raises(DataError, match="non-finite"):
        conv(Tensor(np.full((1, 2, 8), np.nan)))


def test_maxpool_examples():
    out = maxpool1d(Tensor(np.array([[1.0, 3, 2, 5, 4, 6]])), 2, 2)
    np.testing.assert_array_equal(out.data, [[3.0, 5.0, 6.0]])
    const = maxpool1d(Tensor(np.full((2, 9), 4.0)), 3, 3)
    assert np.all(const.data == 4.0)
    assert const.shape == (2, 3)
    assert maxpool1d(Tensor(np.zeros((1, 2, 24))), 3, 3).shape == (1, 2, 8)
    with pytest.raises(DataError):
        maxpool1d(Tensor(np.zeros((1, 4))), 5)


def test_maxpool_tie_routes_to_first():
    x = parameter(np.array([[2.0, 2.0, 1.0, 3.0]]))
    out = maxpool1d(x, 2, 2)
    out.sum().backward()
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0, 1.0]])


def test_upsample_examples():
    out = upsample_nearest(Tensor(np.array([[1.0, 2.0]])), 2)
    np.testing.assert_array_equal(out.data, [[1.0, 1.0, 2.0, 2.0]])
    x = Tensor(np.random.default_rng(6).normal(size=(2, 3, 8)))
    np.testing.assert_array_equal(upsample_nearest(x, 1).data, x.data)
    pooled = maxpool1d(x, 2, 2)
    restored = upsample_nearest(pooled, 2)
    assert restored.shape == x.shape


def test_lstm_zero_weight_oracles():
    rng = np.random.default_rng(7)
    cell = LstmCell(2, 1, rng)
    for p in cell.params.values():
        p.data[:] = 0.0
    a, c = lstm_step(cell, np.zeros(1), np.zeros(1), np.zeros(2))
    assert a.data[0] == 0.0 and c.data[0] == 0.0
    a, c = lstm_step(cell, np.zeros(1), np.ones(1), np.zeros(2))
    assert c.data[0] == pytest.approx(0.5, abs=1e-15)
    assert a.data[0] == pytest.approx(0.5 * np.tanh(0.5), abs=1e-15)
    assert a.data[0] == pytest.approx(0.23105857863000487, abs=1e-15)


def test_lstm_forget_gate_saturation():
    rng = np.random.default_rng(8)
    cell = LstmCell(2, 3, rng)
    cell.params["b_f"].data[:] = 50.0  # forget gate pinned at 1
    a_prev = rng.normal(size=3)
    c_prev = rng.normal(size=3)
    x = rng.normal(size=2)
    _, c = lstm_step(cell, a_prev, c_prev, x)
    z = np.concatenate([a_prev, x])
    c_tilde = np.tanh(cell.params["W_c"].data @ z + cell.params["b_c"].data)
    g_u = 1.0 / (1.0 + np.exp(-(cell.params["W_u"].data @ z + cell.params["b_u"].data)))
    np.testing.assert_allclose(c.data, g_u * c_tilde + c_prev, atol=1e-9)


def test_lstm_step_matches_numpy_oracle():
    rng = np.random.default_rng(9)
    cell = LstmCell(4, 3, rng)
    a_prev = rng.normal(size=3)
    c_prev = rng.normal(size=3)
    x = rng.normal(size=4)
    a, c = lstm_step(cell, a_prev, c_prev, x)
    z = np.concatenate([a_prev, x])
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    p = {k: t.data for k, t in cell.params.items()}
    c_tilde = np.tanh(p["W_c"] @ z + p["b_c"])
    c_ref = sig(p["W_u"] @ z + p["b_u"]) * c_tilde + sig(p["W_f"] @ z + p["b_f"]) * c_prev
    a_ref = sig(p["W_o"] @ z + p["b_o"]) * np.tanh(c_ref)
    np.testing.assert_allclose(c.data, c_ref, atol=1e-12)
    np.testing.assert_allclose(a.data, a_ref, atol=1e-12)


def test_lstm_many_to_one():
    rng = np.random.default_rng(10)
    cell = LstmCell(6, 20, rng)
    seq = rng.normal(size=(5, 6))
    out = lstm_many_to_one(cell, seq)
    assert out.shape == (20,)
    one = lstm_many_to_one(cell, seq[:1])
    a, _ = lstm_step(cell, np.zeros(20), np.zeros(20), seq[0])
    np.testing.assert_allclose(one.data, a.data, atol=1e-15)
    with pytest.raises(DataError):
        lstm_many_to_one(cell, [])


def test_lstm_three_step_unrolled_oracle():
    rng = np.random.default_rng(11)
    cell = LstmCell(2, 2, rng)
    seq = rng.normal(size=(3, 2))
    out = lstm_many_to_one(cell, seq)
    a = np.zeros(2)
    c = np.zeros(2)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    p = {k: t.data for k, t in cell.params.items()}
    for t in range(3):
        z = np.concatenate([a, seq[t]])
        c = sig(p["W_u"] @ z + p["b_u"]) * np.tanh(p["W_c"] @ z + p["b_c"]) \
            + sig(p["W_f"] @ z + p["b_f"]) * c
        a = sig(p["W_o"] @ z + p["b_o"]) * np.tanh(c)
    assert np.max(np.abs(out.data - a)) <= 1e-12


def test_lstm_batched_matches_loop():
    rng = np.random.default_rng(12)
    cell = LstmCell(3, 4, rng)
    block = rng.normal(size=(5, 6, 3))  # batch of 5, six steps
    batched = lstm_many_to_one(cell, block)
    assert batched.shape == (5, 4)
    for n in range(5):
        single = lstm_many_to_one(cell, block[n])
        np.testing.assert_allclose(batched.data[n], single.data, atol=1e-12)


def test_dense_dropout_activations():
    rng = np.random.default_rng(13)
    x = rng.normal(size=5)
    out = dense(Tensor(x), Tensor(np.eye(5)), Tensor(np.zeros(5)))
    np.testing.assert_allclose(out.data, x, atol=1e-15)
    d = Dense(5, 3, rng)
    assert d(Tensor(rng.normal(size=(7, 5)))).shape == (7, 3)
    t = Tensor(x)
    np.testing.assert_array_equal(dropout(t, 0.0, rng).data, x)
    np.testing.assert_array_equal(dropout(t, 0.7, rng, training=False).data, x)
    with pytest.raises(DataError):
        dropout(t, 1.0, rng)
    assert sigmoid(Tensor(np.zeros(3))).data[0] == 0.5
    sm = softmax(Tensor(np.full(4, 2.5)))
    np.testing.assert_allclose(sm.data, 0.25, atol=1e-15)
    assert softmax(Tensor(rng.normal(size=6))).data.sum() == pytest.approx(1.0)


def test_dropout_seeded_reproducible_and_unbiased():
    x = np.ones((40, 25))
    a = dropout(Tensor(x), 0.3, 123).data
    b = dropout(Tensor(x), 0.3, 123).data
    np.testing.assert_array_equal(a, b)
    zero_fraction = np.mean(a == 0.0)
    assert 0.25 < zero_fraction < 0.35
    # inverted scaling keeps the expectation near identity
    means = [dropout(Tensor(x), 0.3, seed).data.mean() for seed in range(30)]
    assert np.mean(means) == pytest.approx(1.0, abs=0.01)


def test_bce_examples():
    eps = 1e-12
    assert float(bce_loss(Tensor([1.0 - eps]), np.array([1.0])).data) == pytest.approx(0.0, abs=1e-9)
    assert float(bce_loss(Tensor([0.5, 0.5]), np.array([1.0, 0.0])).data) == pytest.approx(np.log(2.0))
    assert float(bce_loss(Tensor([0.85]), np.array([1.0])).data) == pytest.approx(
        0.16251892949777494, abs=1e-15)
    # clamping keeps the loss finite on saturated outputs
    assert np.isfinite(float(bce_loss(Tensor([0.0, 1.0]), np.array([1.0, 0.0])).data))
    with pytest.raises(DataError):
        bce_loss(Tensor([0.5]), np.array([1.0, 0.0]))
    with pytest.raises(DataError):
        bce_loss(Tensor([0.5]), np.array([0.3]))


def test_sigmoid_gradient_at_zero():
    x = parameter(np.zeros(1))
    sigmoid(x).sum().backward()
    assert x.grad[0] == pytest.approx(0.25, abs=1e-15)


def test_backward_errors():
    with pytest.raises(DataError, match="no tracked parameters"):
        Tensor(3.0).backward()
    p = parameter(np.ones(4))
    with pytest.raises(DataError, match="scalar"):
        (p * 2.0).backward()


def test_adam_step_oracle():
    v0 = np.array([1.0])
    out, m, v = adam_step(v0, np.zeros(1), np.zeros(1), np.zeros(1), t=1, lr=0.1)
    np.testing.assert_array_equal(out, v0)  # zero grad, fresh state: no move
    out, m, v = adam_step(v0, np.ones(1), np.zeros(1), np.zeros(1), t=1, lr=0.1)
    # bias-corrected moments are exactly the gradient on step one
    assert out[0] == pytest.approx(1.0 - 0.1 * 1.0 / (1.0 + 1e-8), rel=1e-12)
    with pytest.raises(DataError):
        adam_step(v0, np.ones(1), np.zeros(1), np.zeros(1), t=0)


def test_adam_minimizes_quadratic():
    x = parameter(np.array([8.0]))
    opt = Adam([x], lr=0.1)
    for _ in range(400):
        opt.zero_grad()
        loss = ((x - 3.0) ** 2).sum()
        loss.backward()
        opt.step()
    assert x.data[0] == pytest.approx(3.0, abs=1e-3)


def _small_loss(p, x):
    """Reuses w, sends -0.0 gradients through relu into r, and leaves
    ``unused`` out of the graph."""
    h = tanh(Tensor(x) @ p["w"] + p["b"])
    return ((h * p["s"]).sum() + (relu(p["w"]) * 0.5).sum()
            + (relu(p["r"]) * -1.5).sum() + (h * h).mean())


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_adam_flat_store_bits_match_per_parameter_loop():
    rng = np.random.default_rng(16)
    init = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "s": rng.normal(size=1),
            "r": rng.normal(size=(2, 3)), "unused": rng.normal(size=(2, 2))}
    live = {k: parameter(v, k) for k, v in init.items()}
    ref = {k: parameter(v, k) for k, v in init.items()}
    m = {k: np.zeros_like(v) for k, v in init.items()}
    v = {k: np.zeros_like(a) for k, a in init.items()}
    x = rng.normal(size=(5, 3))
    lr = 0.05

    def ref_step(t, grads):
        for k, p in ref.items():
            g = grads.get(k)
            g = np.zeros_like(p.data) if g is None else g
            p.data, m[k], v[k] = adam_step(p.data, g, m[k], v[k], t, lr)

    # grads set before construction are the first step's (unused has none)
    first = {k: rng.normal(size=a.shape) for k, a in init.items() if k != "unused"}
    for k, g in first.items():
        live[k].grad = g.copy()
    opt = Adam(live, lr=lr)
    opt.step()
    ref_step(1, first)
    for t in range(2, 51):
        opt.zero_grad()
        if t == 30:                      # a checkpoint restore rebinds .data
            state = {k: rng.normal(size=a.shape) for k, a in init.items()}
            restore_parameters(live, state)
            for k, p in ref.items():
                p.data = state[k].copy()
        for p in ref.values():
            p.grad = None
        _small_loss(live, x).backward()
        _small_loss(ref, x).backward()
        grads = {k: p.grad for k, p in ref.items()}
        for k, p in live.items():
            want = np.zeros_like(p.data) if grads[k] is None else grads[k]
            np.testing.assert_array_equal(_bits(p.grad), _bits(want), err_msg=f"{k} step {t}")
        if t == 10:
            live["w"].grad = grads["w"] = None
        if t == 20:
            live["b"].grad = np.full(4, 0.25)
            grads["b"] = np.full(4, 0.25)
        opt.step()
        ref_step(t, grads)
        for k, p in live.items():
            np.testing.assert_array_equal(_bits(p.data), _bits(ref[k].data), err_msg=f"{k} step {t}")
        # step() points rebound arrays back at the one value and gradient store
        assert len({id(p.data.base) for p in live.values()}) == 1
        assert len({id(p.grad.base) for p in live.values()}) == 1
    with pytest.raises(DataError, match="listed twice"):
        Adam([live["w"], live["w"]])


def _constant_operands(loss):
    """Every operand in ``loss``'s graph that tracks no gradient."""
    seen, stack, found = {id(loss)}, [loss], []
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                (stack if p.requires_grad else found).append(p)
    return found


def test_concat_gives_a_constant_part_no_gradient():
    w, c = parameter(np.ones((2, 3))), Tensor(np.zeros((1, 3)))
    (concat([w, c]) * 2.0).sum().backward()
    assert c.grad is None
    np.testing.assert_array_equal(w.grad, np.full((2, 3), 2.0))


@pytest.mark.parametrize("case", ["autoencoder", "classifier"])
def test_constants_get_no_gradient_and_parameter_grads_keep_bits(case):
    rng = np.random.default_rng(17)
    if case == "autoencoder":
        model = build_autoencoder(10, 4, 24, seed=1)
        x = rng.normal(size=(64, 10, 1, 24))
        expected = {x.shape}                              # the negated mse target

        def build():
            xb = Tensor(x)
            return mse_loss(model.reconstruct(xb), xb)
    else:
        model = build_classifier(5, 4, 4, 24, seed=1)
        groups = [rng.normal(size=(64, c, 1, 24)) for c in (5, 4, 4)]
        y = (rng.random(64) < 0.5).astype(float)
        expected = {(64,), (64, 20)}                      # bce labels, dropout mask

        def build():
            return bce_loss(forward(model, *groups, training=True, rng=3), y)
    params = model.parameters()
    loss = build()
    loss.backward()
    constants = _constant_operands(loss)
    assert expected <= {c.shape for c in constants}
    assert all(c.grad is None for c in constants)
    got = {k: p.grad.copy() for k, p in params.items()}
    # the old rule: every operand takes its share of the gradient
    for p in params.values():
        p.grad = None
    loss = build()
    constants = _constant_operands(loss)
    for c in constants:
        c.requires_grad = True
    loss.backward()
    assert all(c.grad is not None for c in constants)
    for k, p in params.items():
        np.testing.assert_array_equal(_bits(got[k]), _bits(p.grad), err_msg=k)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    params = {"layer.weight": parameter(rng.normal(size=(3, 4)), "layer.weight"),
              "layer.bias": parameter(rng.normal(size=3), "layer.bias")}
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    state = load_checkpoint(path)
    assert sorted(state) == ["layer.bias", "layer.weight"]
    np.testing.assert_array_equal(state["layer.weight"], params["layer.weight"].data)
    fresh = {"layer.weight": parameter(np.zeros((3, 4)), "layer.weight"),
             "layer.bias": parameter(np.zeros(3), "layer.bias")}
    restore_parameters(fresh, state)
    np.testing.assert_array_equal(fresh["layer.bias"].data, params["layer.bias"].data)
    # byte determinism
    save_checkpoint(params, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_golden_bytes(tmp_path):
    # the complete file, pinned so the format cannot drift between versions
    path = tmp_path / "tiny.ckpt"
    save_checkpoint({"w": np.array([[1.0, -2.0], [0.5, 3.0]]),
                     "b": parameter([0.25], "b")}, path)
    expected = (b"candlecast-checkpoint v1\ncount=2\nb=1\nw=2,2\n\n"
                + struct.pack("<5d", 0.25, 1.0, -2.0, 0.5, 3.0))
    assert path.read_bytes() == expected
    state = load_checkpoint(path)
    np.testing.assert_array_equal(state["w"], [[1.0, -2.0], [0.5, 3.0]])
    (tmp_path / "long.ckpt").write_bytes(expected + b"\0" * 8)
    with pytest.raises(ArtifactError, match="payload"):
        load_checkpoint(tmp_path / "long.ckpt")


def test_non_finite_layer_input_has_its_own_type():
    conv = Conv1d(ConvSpec(2, 4, 3, 1, 1), np.random.default_rng(5))
    with pytest.raises(NonFiniteError):
        conv(Tensor(np.full((1, 2, 8), np.inf)))
    assert issubclass(NonFiniteError, DataError)


def test_checkpoint_errors(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"wrong magic\n\n")
    with pytest.raises(ArtifactError):
        load_checkpoint(p)
    params = {"w": parameter(np.ones((2, 2)), "w")}
    good = tmp_path / "good.ckpt"
    save_checkpoint(params, good)
    blob = good.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(blob[:-8])
    with pytest.raises(ArtifactError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.ckpt")
    with pytest.raises(ArtifactError, match="missing"):
        restore_parameters({"w": params["w"], "extra": params["w"]}, load_checkpoint(good))
    with pytest.raises(ArtifactError, match="shape"):
        restore_parameters({"w": parameter(np.ones(3), "w")}, load_checkpoint(good))
    with pytest.raises(ArtifactError, match="bad parameter name"):
        save_checkpoint({"a=b": np.ones(1)}, tmp_path / "nope.ckpt")


# -- gradient checks (small, per layer; the wide sweep runs in acceptance) --

def test_gradcheck_conv():
    rng = np.random.default_rng(20)
    x = parameter(rng.normal(size=(2, 3, 7)))
    conv = Conv1d(ConvSpec(3, 2, 3, 2, 1), rng)
    build = lambda: (conv1d_forward(x, conv.spec, conv.weight, conv.bias) ** 2).sum()
    assert gradcheck(build, [x, conv.weight, conv.bias]) < 1e-4


def test_gradcheck_pool_upsample():
    rng = np.random.default_rng(21)
    x = parameter(rng.normal(size=(2, 2, 9)))
    build = lambda: (maxpool1d(x, 3, 3) ** 2).sum()
    assert gradcheck(build, [x]) < 1e-4
    build = lambda: (upsample_nearest(x, 3) ** 2).sum()
    assert gradcheck(build, [x]) < 1e-4


def test_gradcheck_lstm():
    rng = np.random.default_rng(22)
    cell = LstmCell(3, 2, rng)
    seq = parameter(rng.normal(size=(4, 3)))
    tensors = [seq] + list(cell.params.values())
    build = lambda: (lstm_many_to_one(cell, seq) ** 2).sum()
    assert gradcheck(build, tensors) < 1e-4


def test_gradcheck_dense_activations_losses():
    rng = np.random.default_rng(23)
    x = parameter(rng.normal(size=(4, 5)))
    layer = Dense(5, 3, rng)
    y = np.array([1.0, 0.0, 1.0, 1.0])

    def build():
        hidden = relu(layer(x))
        logits = dense(hidden, w2.weight, w2.bias)
        return bce_loss(sigmoid(logits).reshape(4), y)

    w2 = Dense(3, 1, rng)
    assert gradcheck(build, [x, layer.weight, layer.bias, w2.weight, w2.bias]) < 1e-4
    target = rng.normal(size=(4, 5))
    build_mse = lambda: mse_loss(tanh(x), Tensor(target))
    assert gradcheck(build_mse, [x]) < 1e-4
    build_sm = lambda: (softmax(x, axis=1) * Tensor(target)).sum()
    assert gradcheck(build_sm, [x]) < 1e-4


def test_gradcheck_dropout_fixed_seed():
    rng = np.random.default_rng(24)
    x = parameter(rng.normal(size=(3, 6)))
    build = lambda: (dropout(x, 0.4, 99) ** 2).sum()
    assert gradcheck(build, [x]) < 1e-4


def test_gradcheck_concat_getitem():
    rng = np.random.default_rng(25)
    a = parameter(rng.normal(size=(2, 3)))
    b = parameter(rng.normal(size=(2, 4)))
    build = lambda: (concat([a, b], axis=1)[:, 1:6] ** 2).sum()
    assert gradcheck(build, [a, b]) < 1e-4

# -- lowered kernels against their direct forms -------------------------------

def einsum_conv(x, w, b, spec, g):
    """Conv output and its three gradients for upstream ``g``, by einsum
    over gathered windows (the direct formulation the GEMM replaces)."""
    bs, c, l = x.shape
    p = spec.padding
    l_out = conv1d_out_len(spec, l)
    idx = (np.arange(l_out)[:, None] * spec.stride
           + np.arange(spec.kernel_size)[None, :] * spec.dilation)
    windows = np.pad(x, ((0, 0), (0, 0), (p, p)))[:, :, idx]     # (b, c, l_out, k)
    out = np.einsum("bclk,dck->bdl", windows, w) + b[None, :, None]
    gw = np.einsum("bclk,bdl->dck", windows, g)
    gb = g.sum(axis=(0, 2))
    gx = np.zeros((bs, c, l + 2 * p))
    for n in range(bs):
        for i in range(l_out):
            gx[n][:, idx[i]] += np.einsum("dl,dck->ck", g[n][:, i:i + 1], w)
    return out, gw, gb, gx[:, :, p:p + l]


@pytest.mark.parametrize("shape,spec", [
    ((64, 16, 24), ConvSpec(16, 13, 3, 1, 1)),   # AE first encoder layer
    ((64, 5, 8), ConvSpec(5, 8, 3, 1, 1)),       # classifier branch after the 3-pool
    ((3, 4, 17), ConvSpec(4, 2, 3, 2, 1)),       # stride 2
    ((3, 4, 17), ConvSpec(4, 2, 3, 1, 2, 2)),    # dilation 2
    ((3, 4, 17), ConvSpec(4, 2, 4, 1, 0)),       # padding 0
    ((3, 4, 17), ConvSpec(4, 2, 2, 3, 0)),       # gapped: stride > kernel
])
def test_conv_gemm_matches_einsum(shape, spec):
    rng = np.random.default_rng(sum(shape))
    x = parameter(rng.normal(size=shape))
    w = parameter(rng.normal(size=(spec.out_channels, spec.in_channels, spec.kernel_size)))
    b = parameter(rng.normal(size=spec.out_channels))
    out = conv1d_forward(x, spec, w, b)
    g = rng.normal(size=out.shape)
    out.backward(g)
    ref_out, ref_gw, ref_gb, ref_gx = einsum_conv(x.data, w.data, b.data, spec, g)
    for got, ref in ((out.data, ref_out), (w.grad, ref_gw), (b.grad, ref_gb), (x.grad, ref_gx)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def window_maxpool(x, kernel, stride, g):
    """Window-gather reference: the first maximum of each window, and its
    gradient scattered back one tap at a time."""
    l_out = (x.shape[2] - kernel) // stride + 1
    idx = np.arange(l_out)[:, None] * stride + np.arange(kernel)[None, :]
    windows = x[:, :, idx]                                        # (b, c, l_out, k)
    arg = windows.argmax(axis=3)
    out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]
    gx = np.zeros(x.shape)
    for j in range(kernel):
        gx[:, :, idx[:, j]] += np.where(arg == j, g, 0.0)
    return out, gx


# The masked-copy, where-select and reshape-sum bodies that relu, maxpool1d
# and upsample_nearest had before they moved to tap slices: each returns the
# forward value and the input gradient, the latter after _accumulate's + 0.0.

def where_relu(x, g):
    mask = x > 0
    return np.where(mask, x, 0.0), g * mask + 0.0


def copyto_maxpool(x, kernel, stride, g):
    l_out = (x.shape[2] - kernel) // stride + 1
    taps = [slice(j, j + stride * (l_out - 1) + 1, stride) for j in range(kernel)]
    out = x[:, :, taps[0]].copy()
    arg = np.zeros(out.shape, dtype=np.intp)
    for j in range(1, kernel):
        xj = x[:, :, taps[j]]
        larger = xj > out
        np.copyto(out, xj, where=larger)
        np.copyto(arg, j, where=larger)
    gx = np.zeros(x.shape)
    for j, tap in enumerate(taps):
        gx[:, :, tap] += np.where(arg == j, g, 0.0)
    return out, gx + 0.0


def reshape_sum_upsample(x, factor, g):
    b, c, l = x.shape
    return np.repeat(x, factor, axis=2), g.reshape(b, c, l, factor).sum(axis=3) + 0.0


def rounded(rng, shape):
    """Normals rounded to one decimal: ties, all-negative windows and -0.0
    (from small negatives) are all common."""
    return np.round(rng.normal(size=shape), 1)


def assert_same_bits(op, reference, x, rng):
    """op's output and input gradient equal reference's as int64 bit patterns."""
    t = parameter(x)
    out = op(t)
    g = rounded(rng, out.shape)
    out.backward(g)
    ref_out, ref_gx = reference(x, g)
    for got, want in ((out.data, ref_out), (t.grad, ref_gx)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.shares_memory(out.data, t.data)


def test_maxpool_matches_window_gather_oracle():
    rng = np.random.default_rng(30)
    # tiled, ragged, overlapping and gapped windows
    for kernel, stride, length in ((2, 2, 12), (3, 3, 18), (3, 3, 13),
                                   (3, 1, 13), (3, 2, 13), (2, 3, 13)):
        # small integers make ties within a window common
        x = parameter(rng.integers(-2, 3, size=(4, 3, length)).astype(float))
        out = maxpool1d(x, kernel, stride)
        g = rng.normal(size=out.shape)
        out.backward(g)
        ref_out, ref_gx = window_maxpool(x.data, kernel, stride, g)
        windows = np.lib.stride_tricks.sliding_window_view(x.data, kernel, axis=2)[:, :, ::stride]
        assert np.any((windows == ref_out[..., None]).sum(axis=3) > 1)     # ties occur
        np.testing.assert_array_equal(out.data, ref_out)
        np.testing.assert_array_equal(x.grad, ref_gx)

    # the reference bodies, bit for bit: the AE stage at (64, mid, 24), the
    # classifier's 3-pool, overlapping and unit windows
    for shape, kernel, stride in (((64, 11, 24), 2, 2), ((64, 5, 24), 3, 3),
                                  ((4, 3, 13), 3, 2), ((4, 3, 13), 1, 1)):
        x = rounded(rng, shape)
        pairs = x[:, :, :shape[2] // 2 * 2].reshape(-1, 2)
        assert np.any(pairs[:, 0] == pairs[:, 1])                      # tied pairs
        assert np.any(np.all(pairs < 0, axis=1))                       # all-negative pairs
        assert np.any((x == 0) & np.signbit(x)) and np.any((x == 0) & ~np.signbit(x))
        assert_same_bits(lambda t: maxpool1d(t, kernel, stride),
                           lambda a, g: copyto_maxpool(a, kernel, stride, g), x, rng)
        assert_same_bits(relu, where_relu, x, rng)
    for factor in (1, 2, 3, 4):
        assert_same_bits(lambda t: upsample_nearest(t, factor),
                           lambda a, g: reshape_sum_upsample(a, factor, g),
                           rounded(rng, (64, 11, 12)), rng)
    tiny = np.finfo(float).smallest_subnormal
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny,
                         1e-310, -1e-310, 1.5, -1.5])
    assert_same_bits(relu, where_relu, specials.reshape(1, 1, -1), rng)
    for n in (1, 3, 17):        # SIMD and scalar fmax paths disagree on -0.0's sign
        assert_same_bits(relu, where_relu, np.full((1, 1, n), -0.0), rng)


def composed_lstm(cell, seq, a, c):
    """The recurrence built from per-gate graph ops, one step at a time."""
    p = cell.params
    for t in range(seq.shape[1]):
        z = concat([a, seq[:, t]], axis=1)

        def gate(which, fn):
            return fn(z @ p[f"W_{which}"].transpose(1, 0) + p[f"b_{which}"])

        c = gate("u", sigmoid) * gate("c", tanh) + gate("f", sigmoid) * c
        a = gate("o", sigmoid) * tanh(c)
    return a, c


def test_fused_lstm_matches_composed_steps():
    rng = np.random.default_rng(31)
    cell = LstmCell(24, 20, rng)
    for p in cell.params.values():
        p.data += rng.normal(0.0, 0.1, p.shape)       # non-zero biases too
    seq = parameter(rng.normal(size=(16, 8, 24)))
    g = rng.normal(size=(16, 20))
    leaves = [seq, *cell.params.values()]
    grads = []
    for run in (lambda: lstm_many_to_one(cell, seq),
                lambda: composed_lstm(cell, seq, Tensor(np.zeros((16, 20))),
                                      Tensor(np.zeros((16, 20))))[0]):
        for t in leaves:
            t.grad = None
        out = run()
        out.backward(g)
        grads.append((out.data, [t.grad for t in leaves]))
    (fused, fused_grads), (ref, ref_grads) = grads
    assert np.max(np.abs(fused - ref)) <= 1e-12
    for got, want in zip(fused_grads, ref_grads):
        assert np.max(np.abs(got - want)) <= 1e-10

    # lstm_step runs the same node with given states, gradients included
    a0, c0 = parameter(rng.normal(size=(3, 20))), parameter(rng.normal(size=(3, 20)))
    x = seq[:3, 0]
    a, c = lstm_step(cell, a0, c0, x)
    (a * 1.5 + c * c).sum().backward()
    got = (a.data, c.data, a0.grad.copy(), c0.grad.copy())
    a0.grad = c0.grad = None
    ra, rc = composed_lstm(cell, x.reshape(3, 1, 24), a0, c0)
    (ra * 1.5 + rc * rc).sum().backward()
    for g1, g2 in zip(got, (ra.data, rc.data, a0.grad, c0.grad)):
        assert np.max(np.abs(g1 - g2)) <= 1e-10


def test_fused_lstm_rejects_overflowing_gates():
    cell = LstmCell(2, 3, np.random.default_rng(32))
    cell.params["W_u"].data[:] = 1e300
    # the product overflows to inf and the gates saturate without a NaN
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="gate pre-activation"):
        lstm_many_to_one(cell, np.full((4, 2), 1e10))


OLD_FORMULA_GRID = np.array([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 36.0, -36.0,
                             709.0, -709.0, 745.0, -745.0, 746.0, -746.0,
                             1e308, -1e308, np.inf, -np.inf])


def test_stable_sigmoid_bits_match_two_branch_formula():
    z = np.concatenate([OLD_FORMULA_GRID, np.linspace(-50.0, 50.0, 2001)])
    old = np.empty_like(z)
    pos = z >= 0
    old[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    old[~pos] = ez / (1.0 + ez)
    assert stable_sigmoid(z).tobytes() == old.tobytes()
    assert np.isnan(stable_sigmoid(np.array([np.nan]))[0])   # NaN stays NaN


def test_stable_sigmoid_one_divide_bits_match_where_formula():
    # magnitudes 1e-300 to 800, both signs, then the edges, -0.0 and -NaN included
    rng = np.random.default_rng(18)
    scale = 10.0 ** rng.uniform(-300.0, np.log10(800.0), 100_000)
    edges = np.array([0.0, np.inf, np.nan, 5e-324, 709.8, 745.2, 36.0, 1e308])
    z = np.concatenate([scale, edges, -scale, -edges])
    z = z[rng.permutation(z.size)]

    def where_formula(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    for arg in (z, z[::3], z.reshape(2, -1).T):     # contiguous and strided
        np.testing.assert_array_equal(_bits(stable_sigmoid(arg)), _bits(where_formula(arg)))
    for x in (0.0, -3.0, 3.0):                     # 0-d, as from a scalar tensor
        assert _bits(stable_sigmoid(np.array(x))) == _bits(where_formula(np.array(x)))
        y = sigmoid(Tensor(x, requires_grad=True))
        y.backward()
        assert y.data.shape == () and y.data == where_formula(np.array(x))


def test_accumulate_first_write_bits_match_zeros_plus_grad():
    for shape, g in (((18,), OLD_FORMULA_GRID), ((2, 18), OLD_FORMULA_GRID),
                     ((3,), np.float64(-0.0)), ((2, 3), np.array([[-0.0], [1e308]]))):
        t = parameter(np.ones(shape))
        t._accumulate(g)
        old = np.zeros(shape)
        old += g
        assert t.grad.tobytes() == old.tobytes()
        with np.errstate(over="ignore"):       # 1e308 + 1e308 = inf on both sides
            t._accumulate(g)                   # later writes add in place
            old += g
        assert t.grad.tobytes() == old.tobytes()


def test_no_grad_records_no_graph():
    w = parameter(np.ones((2, 3)))
    with no_grad():
        out = (Tensor(np.ones((4, 2))) @ w).sum()
    assert not out.requires_grad and out._parents == () and out._backward is None
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("leaves the scope")
    assert (Tensor(np.ones((4, 2))) @ w).requires_grad


def _entry_table():
    """Each layer entry: its message label -> (call, batched inputs with the
    batch axis first, whether it takes (N, C, 1, L), wrong-rank inputs)."""
    rng = np.random.default_rng(41)
    conv = Conv1d(ConvSpec(2, 3, 3, 1, 1), rng)
    cell = LstmCell(2, 3, rng)
    fc = Dense(4, 3, rng)
    block = (rng.normal(size=(3, 2, 8)),)
    bcl_wrong = [(rng.normal(size=8),), (rng.normal(size=(1, 3, 2, 1, 8)),)]
    return {
        "conv1d": (conv, block, True, bcl_wrong),
        "maxpool1d": (lambda x: maxpool1d(x, 2, 2), block, True, bcl_wrong),
        "upsample_nearest": (lambda x: upsample_nearest(x, 2), block, True, bcl_wrong),
        "dense": (fc, (rng.normal(size=(3, 4)),), False,
                  [(np.float64(1.0),), (np.zeros((2, 3, 4)),)]),
        "lstm_step": (lambda a, c, x: lstm_step(cell, a, c, x),
                      (rng.normal(size=(3, 3)), rng.normal(size=(3, 3)),
                       rng.normal(size=(3, 2))), False,
                      [(np.zeros(3), np.zeros(3), np.zeros((4, 2))),
                       (np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 1, 2)))]),
        "lstm_many_to_one": (lambda s: lstm_many_to_one(cell, s),
                             (rng.normal(size=(3, 5, 2)),), False,
                             [(np.zeros(2),), (np.zeros((3, 5, 1, 2)),),
                              ([np.zeros((3, 1, 2))] * 5,)]),
        "dropout": (lambda x: dropout(x, 0.5, 9), block, True, []),
    }


def _entry_bits(out):
    """An output (or lstm_step's (a, c) pair) as int64 bits."""
    parts = out if isinstance(out, tuple) else (out,)
    return np.concatenate([t.data for t in parts], axis=-1).view(np.int64)


@pytest.mark.parametrize("name", list(_entry_table()))
def test_every_layer_entry_follows_one_rule(name):
    call, batched, takes_height, wrong = _entry_table()[name]
    # NaN and +-Inf in any input stop at the entry, named
    for i in range(len(batched)):
        for bad in (np.nan, np.inf, -np.inf):
            inputs = [x.copy() for x in batched]
            inputs[i].flat[5] = bad
            with pytest.raises(NonFiniteError, match=f"entering {name}"):
                call(*inputs)
    # a single instance comes back unbatched, a height axis comes back
    single = call(*(x[0] for x in batched))
    want = _entry_bits(call(*(x[:1] for x in batched)))[0]
    assert np.array_equal(_entry_bits(single), want)
    if takes_height:
        tall = call(*(x[:, :, None] for x in batched))
        want = _entry_bits(call(*batched))[:, :, None]
        assert tall.shape == want.shape and np.array_equal(_entry_bits(tall), want)
    # any other rank is a data error naming the layer
    for inputs in wrong:
        with pytest.raises(DataError, match=name) as caught:
            call(*inputs)
        assert not isinstance(caught.value, NonFiniteError)
