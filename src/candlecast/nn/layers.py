"""Differentiable layers over the autograd tensor: 1-d convolution with the
standard output-length law, max pooling with first-argmax gradient routing,
nearest-neighbour upsampling, a gated recurrent (LSTM) cell, dense layers,
and inverted-scaling dropout.

Canonical activation layout is (batch, channels, length); a single instance
may be passed as (channels, length) and comes back unbatched, and the
dataset's (batch, channels, 1, length) blocks are accepted with the height
axis squeezed and restored.  Layer entry points reject NaN/Inf inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NonFiniteError
from .tensor import (Tensor, as_tensor, concat, matmul, parameter, relu,
                     sigmoid, softmax, stable_sigmoid, tanh, _node)

__all__ = ["ConvSpec", "Conv1d", "conv1d_out_len", "conv1d_forward", "maxpool1d",
           "upsample_nearest", "LstmCell", "lstm_step", "lstm_many_to_one",
           "Dense", "dense", "dropout", "relu", "sigmoid", "tanh", "softmax"]


def check_finite(x: Tensor, where: str) -> Tensor:
    if not np.all(np.isfinite(x.data)):
        raise NonFiniteError(f"non-finite values entering {where}")
    return x


def drop_height(x, label: str):
    """Squeeze the unit height axis of an (N, C, 1, L) array or Tensor to
    (N, C, L); any other rank passes through unchanged."""
    if x.ndim != 4:
        return x
    if x.shape[2] != 1:
        raise DataError(f"{label}: 4-d input must have height 1, got {x.shape}")
    return x.reshape(x.shape[0], x.shape[1], x.shape[3])


def as_batch(x, label: str) -> np.ndarray:
    """A training block as a finite, non-empty float64 (N, C, L) array;
    (N, C, 1, L) blocks lose their unit height axis."""
    x = drop_height(np.asarray(x, dtype=np.float64), label)
    if x.ndim != 3 or x.shape[0] == 0:
        raise DataError(f"{label}: expected a non-empty (batch, channels, width) "
                        f"block, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{label}: non-finite values")
    return x


def _to_bcl(x: Tensor):
    """Normalize (C,L), (B,C,L), or (B,C,1,L) to (B,C,L); returns the tensor
    plus a restore tag for the output."""
    if x.ndim == 2:
        return x.reshape(1, *x.shape), "single"
    if x.ndim == 3:
        return x, "batch"
    if x.ndim == 4:
        return drop_height(x, "layer input"), "height"
    raise DataError(f"expected 2-d, 3-d, or 4-d input, got shape {x.shape}")


def _restore(y: Tensor, tag: str) -> Tensor:
    if tag == "single":
        return y.reshape(*y.shape[1:])
    if tag == "height":
        return y.reshape(y.shape[0], y.shape[1], 1, y.shape[2])
    return y


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    padding: int = 0
    dilation: int = 1

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise DataError(f"channel counts must be >= 1, got {self}")
        if self.kernel_size < 1 or self.stride < 1 or self.dilation < 1 or self.padding < 0:
            raise DataError(f"bad geometry in {self}")


def conv1d_out_len(spec: ConvSpec, l_in: int) -> int:
    """floor((L_in + 2p - d(k-1) - 1) / s + 1); errors if nothing fits."""
    out = (l_in + 2 * spec.padding - spec.dilation * (spec.kernel_size - 1) - 1) // spec.stride + 1
    if out < 1:
        raise DataError(f"no output positions: L_in={l_in} with {spec}")
    return out


def same_padding(kernel_size: int) -> int:
    """Width-preserving padding for stride-1 odd kernels: (k-1)/2."""
    return (kernel_size - 1) // 2


def _taps(spec: ConvSpec, l_out: int) -> list:
    """One strided slice per tap: tap j of windows 0..l_out-1 sits at
    j*dilation + i*stride, so no position repeats within a slice."""
    span = spec.stride * (l_out - 1) + 1
    return [slice(j * spec.dilation, j * spec.dilation + span, spec.stride)
            for j in range(spec.kernel_size)]


def conv1d_forward(x, spec: ConvSpec, weight: Tensor, bias: Tensor) -> Tensor:
    """Cross-correlation along the last axis, lowered to one matrix product
    per pass over a (batch * l_out, kernel * in_channels) window matrix.

    weight is (out_channels, in_channels, kernel_size); bias is (out_channels,).
    """
    x = check_finite(as_tensor(x), "conv1d")
    x3, tag = _to_bcl(x)
    b, c, l = x3.shape
    if c != spec.in_channels:
        raise DataError(f"conv1d expects {spec.in_channels} channels, got {c} (input {x.shape})")
    if weight.shape != (spec.out_channels, spec.in_channels, spec.kernel_size):
        raise DataError(f"conv1d weight shape {weight.shape} does not match {spec}")
    if bias.shape != (spec.out_channels,):
        raise DataError(f"conv1d bias shape {bias.shape} does not match {spec}")
    l_out = conv1d_out_len(spec, l)
    d, k, p = spec.out_channels, spec.kernel_size, spec.padding

    padded = np.zeros((b, l + 2 * p, c))                      # channels last
    padded[:, p:p + l] = x3.data.transpose(0, 2, 1)
    taps = _taps(spec, l_out)
    # the one window-sized copy: row (n, i) holds taps 0..k-1 of output i
    cols = np.empty((b, l_out, k, c))
    for j, tap in enumerate(taps):
        cols[:, :, j] = padded[:, tap]
    cols = cols.reshape(b * l_out, k * c)
    w2 = weight.data.transpose(0, 2, 1).reshape(d, k * c)
    out_data = (cols @ w2.T + bias.data).reshape(b, l_out, d).transpose(0, 2, 1)

    def backward(g):
        g2 = g.transpose(0, 2, 1).reshape(b * l_out, d)
        if weight.requires_grad:
            weight._accumulate((g2.T @ cols).reshape(d, k, c).transpose(0, 2, 1))
        if bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))
        if x3.requires_grad:
            gcols = (g2 @ w2).reshape(b, l_out, k, c)
            gx = np.zeros((b, l + 2 * p, c))
            for j, tap in enumerate(taps):
                gx[:, tap] += gcols[:, :, j]
            x3._accumulate(gx[:, p:p + l].transpose(0, 2, 1))

    out = _node(out_data, (x3, weight, bias), backward)
    return _restore(out, tag)


class Conv1d:
    """Conv layer owning its parameters; weights ~ N(0, 2/fan_in)."""

    def __init__(self, spec: ConvSpec, rng: np.random.Generator, name: str = "conv"):
        self.spec = spec
        fan_in = spec.in_channels * spec.kernel_size
        self.weight = parameter(
            rng.normal(0.0, np.sqrt(2.0 / fan_in),
                       (spec.out_channels, spec.in_channels, spec.kernel_size)),
            name=f"{name}.weight")
        self.bias = parameter(np.zeros(spec.out_channels), name=f"{name}.bias")

    def __call__(self, x) -> Tensor:
        return conv1d_forward(x, self.spec, self.weight, self.bias)

    def parameters(self) -> dict:
        return {self.weight.name: self.weight, self.bias.name: self.bias}


def maxpool1d(x, kernel: int, stride: int | None = None) -> Tensor:
    """Windowed maximum along the last axis; gradient flows to the first
    maximum of each window (ties resolved to the lowest position)."""
    if kernel < 1:
        raise DataError(f"pool kernel must be >= 1, got {kernel}")
    stride = kernel if stride is None else stride
    if stride < 1:
        raise DataError(f"pool stride must be >= 1, got {stride}")
    x = check_finite(as_tensor(x), "maxpool1d")
    x3, tag = _to_bcl(x)
    l = x3.shape[2]
    if kernel > l:
        raise DataError(f"pool kernel {kernel} exceeds length {l}")
    spec = ConvSpec(1, 1, kernel, stride)
    taps = _taps(spec, conv1d_out_len(spec, l))
    # running maximum over the taps; the strict > keeps the first maximum
    out_data = x3.data[:, :, taps[0]].copy()
    arg = np.zeros(out_data.shape, dtype=np.intp)
    for j in range(1, kernel):
        xj = x3.data[:, :, taps[j]]
        larger = xj > out_data
        out_data = np.where(larger, xj, out_data)
        arg = np.where(larger, j, arg)

    def backward(g):
        gx = np.zeros(x3.shape)     # a negative g * False is -0.0, and 0.0 + -0.0 is +0.0
        for j, tap in enumerate(taps):
            gx[:, :, tap] += g * (arg == j)
        x3._accumulate(gx)

    out = _node(out_data, (x3,), backward)
    return _restore(out, tag)


def upsample_nearest(x, factor: int) -> Tensor:
    """Repeat each position ``factor`` times along the last axis; the
    backward pass sums the gradient over each repeat group, copy by copy in
    order (numpy's own order below factor 8; it sums 8 or more pairwise)."""
    if factor < 1:
        raise DataError(f"upsample factor must be >= 1, got {factor}")
    x = check_finite(as_tensor(x), "upsample_nearest")
    x3, tag = _to_bcl(x)
    out_data = np.repeat(x3.data, factor, axis=2)

    def backward(g):
        x3._accumulate(sum(g[:, :, j::factor] for j in range(factor)))

    out = _node(out_data, (x3,), backward)
    return _restore(out, tag)


# column blocks of the stacked gate weights: the tanh candidate first, then
# the three sigmoid gates, so one sigmoid call covers columns h..4h
_GATES = ("c", "u", "f", "o")


class LstmCell:
    """Gated recurrent cell: candidate, update, forget, and output gates over
    the concatenation [a_prev, x]; all four weight matrices are
    hidden x (hidden + input)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator,
                 name: str = "lstm"):
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        width = self.hidden_size + self.input_size
        scale = 1.0 / np.sqrt(width)
        self.params = {}
        for gate in _GATES:
            w = parameter(rng.normal(0.0, scale, (self.hidden_size, width)),
                          name=f"{name}.W_{gate}")
            bias = parameter(np.zeros(self.hidden_size), name=f"{name}.b_{gate}")
            self.params[f"W_{gate}"] = w
            self.params[f"b_{gate}"] = bias

    def parameters(self) -> dict:
        return {p.name: p for p in self.params.values()}


def _lstm_sequence(cell: LstmCell, seq: Tensor, a0: Tensor, c0: Tensor) -> Tensor:
    """The recurrence over a (batch, T, input) block from states (a0, c0), as
    one graph node whose value is [a_T, c_T] side by side, (batch, 2*hidden).

    With the gates stacked column-wise, W_all = [W_c; W_u; W_f; W_o]^T:
      pre        = [a_prev, x_t] @ W_all + b_all
      candidate  c~ = tanh(pre[:, :h]);  gates u, f, o = sigmoid(pre[:, h:])
      state      c = u * c~ + f * c_prev,  a = o * tanh(c)
    The backward pass is hand-written backpropagation through time.
    """
    h = cell.hidden_size
    batch, steps, d = seq.shape
    weights = [cell.params[f"W_{g}"] for g in _GATES]
    biases = [cell.params[f"b_{g}"] for g in _GATES]
    w_all = np.concatenate([w.data for w in weights]).T      # (h + d, 4h)
    b_all = np.concatenate([b.data for b in biases])

    # time-major caches: z[t] = [a_{t-1}, x_t], act[t] = [c~, u, f, o]
    z = np.empty((steps, batch, h + d))
    z[:, :, h:] = seq.data.transpose(1, 0, 2)
    pre = np.empty((steps, batch, 4 * h))
    act = np.empty((steps, batch, 4 * h))
    cs = np.empty((steps + 1, batch, h))                      # c_0 .. c_T
    tanh_c = np.empty((steps, batch, h))
    cs[0] = c0.data
    a = a0.data
    for t in range(steps):
        z[t, :, :h] = a
        pre[t] = z[t] @ w_all + b_all
        act[t, :, :h] = np.tanh(pre[t, :, :h])
        act[t, :, h:] = stable_sigmoid(pre[t, :, h:])
        cs[t + 1] = act[t, :, h:2 * h] * act[t, :, :h] + act[t, :, 2 * h:3 * h] * cs[t]
        tanh_c[t] = np.tanh(cs[t + 1])
        a = act[t, :, 3 * h:] * tanh_c[t]
    # overflowing products saturate the gates without a NaN; stop here
    if not np.all(np.isfinite(pre)):
        raise NonFiniteError("non-finite gate pre-activation in the lstm")

    def backward(g):
        da, dc = g[:, :h], g[:, h:]
        gpre = np.empty_like(pre)
        w_a = w_all[:h].T                                     # (4h, h)
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
        gw = z.reshape(steps * batch, h + d).T @ flat          # (h + d, 4h)
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


def lstm_step(cell: LstmCell, a_prev, c_prev, x):
    """One recurrence step (the gate math of ``_lstm_sequence`` with T=1).

    Accepts (hidden,) / (input,) vectors or (batch, hidden) / (batch, input)
    blocks; returns (a, c) with matching arrangement.
    """
    a_prev, c_prev, x = as_tensor(a_prev), as_tensor(c_prev), as_tensor(x)
    for t, label in ((a_prev, "a_prev"), (c_prev, "c_prev"), (x, "x")):
        check_finite(t, f"lstm_step {label}")
    single = x.ndim == 1
    if single:
        a_prev, c_prev, x = (t.reshape(1, -1) for t in (a_prev, c_prev, x))
    h, d = cell.hidden_size, cell.input_size
    if x.shape[1] != d or a_prev.shape[1] != h or c_prev.shape[1] != h:
        raise DataError(f"lstm_step dims: x {x.shape}, a_prev {a_prev.shape}, "
                        f"c_prev {c_prev.shape} vs hidden={h}, input={d}")
    state = _lstm_sequence(cell, x.reshape(x.shape[0], 1, d), a_prev, c_prev)
    a, c = state[:, :h], state[:, h:]
    if single:
        a, c = a.reshape(h), c.reshape(h)
    return a, c


def transpose_2d(t: Tensor) -> Tensor:
    return t.transpose(1, 0)


def lstm_many_to_one(cell: LstmCell, sequence) -> Tensor:
    """Run the cell over a sequence from zero states and return the final
    hidden state.

    ``sequence`` is a list of per-step inputs, a (T, input) array, or a
    (batch, T, input) block; the result is (hidden,) or (batch, hidden).
    """
    if isinstance(sequence, Tensor) or isinstance(sequence, np.ndarray):
        seq = as_tensor(sequence)
        if seq.ndim not in (2, 3):
            raise DataError(f"sequence must be (T, input) or (batch, T, input), got {seq.shape}")
    else:
        steps = [as_tensor(s) for s in sequence]
        if not steps:
            raise DataError("empty sequence")
        # stack on the step axis: (input,) steps give (T, input)
        seq = concat([s.reshape(*s.shape[:-1], 1, s.shape[-1]) for s in steps], axis=-2)
    single = seq.ndim == 2
    if single:
        seq = seq.reshape(1, *seq.shape)
    check_finite(seq, "lstm_many_to_one")
    if seq.shape[1] == 0:
        raise DataError("empty sequence")
    if seq.shape[2] != cell.input_size:
        raise DataError(f"lstm expects {cell.input_size} inputs per step, got {seq.shape}")
    h = cell.hidden_size
    zeros = Tensor(np.zeros((seq.shape[0], h)))
    a = _lstm_sequence(cell, seq, zeros, zeros)[:, :h]
    return a.reshape(h) if single else a


class Dense:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 name: str = "dense", zero_init: bool = False):
        if zero_init:
            w = np.zeros((out_features, in_features))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / in_features), (out_features, in_features))
        self.weight = parameter(w, name=f"{name}.weight")
        self.bias = parameter(np.zeros(out_features), name=f"{name}.bias")

    def __call__(self, x) -> Tensor:
        return dense(x, self.weight, self.bias)

    def parameters(self) -> dict:
        return {self.weight.name: self.weight, self.bias.name: self.bias}


def dense(x, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x W^T + b; x is (features,) or (batch, features)."""
    x = check_finite(as_tensor(x), "dense")
    single = x.ndim == 1
    if single:
        x = x.reshape(1, -1)
    if x.shape[1] != weight.shape[1]:
        raise DataError(f"dense expects {weight.shape[1]} features, got {x.shape[1]}")
    out = matmul(x, transpose_2d(weight)) + bias
    return out.reshape(weight.shape[0]) if single else out


def dropout(x, rate: float, rng: np.random.Generator | int, training: bool = True) -> Tensor:
    """Inverted-scaling dropout: each unit is zeroed with probability ``rate``
    and survivors scale by 1/(1-rate), so inference needs no rescaling."""
    if not 0.0 <= rate < 1.0:
        raise DataError(f"dropout rate must be in [0, 1), got {rate}")
    x = check_finite(as_tensor(x), "dropout")
    if not training or rate == 0.0:
        return x * 1.0
    keep = (np.random.default_rng(rng).random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(keep)
