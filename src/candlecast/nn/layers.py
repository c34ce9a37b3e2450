"""Differentiable layers over the autograd tensor: 1-d convolution with the
standard output-length law, max pooling with first-argmax gradient routing,
nearest-neighbour upsampling, a gated recurrent (LSTM) cell, dense layers,
and inverted-scaling dropout.

Every layer takes its input through ``_entering``, the one place the entry
rule lives: NaN/Inf is rejected; a single instance, one rank below the
batched form (e.g. (channels, length) for (batch, channels, length)), comes
back unbatched; the dataset's (batch, channels, 1, length) blocks have their
height axis squeezed and restored.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DataError, NonFiniteError
from .tensor import (Tensor, as_tensor, concat, matmul, parameter, relu,
                     sigmoid, softmax, stable_sigmoid, tanh, _node)

__all__ = ["ConvSpec", "Conv1d", "conv1d_out_len", "conv1d_forward", "maxpool1d",
           "upsample_nearest", "LstmCell", "lstm_step", "lstm_many_to_one",
           "Dense", "dense", "dropout", "relu", "sigmoid", "tanh", "softmax"]


def check_finite(x, where: str):
    """``x`` (a Tensor or an array) unchanged, or NonFiniteError naming
    ``where`` if it holds NaN or Inf."""
    if not np.all(np.isfinite(as_tensor(x).data)):
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


def _entering(x, where: str, rank: int = 3):
    """A layer input as a finite Tensor of the batched ``rank``, plus ``back``,
    which puts an output into the input's arrangement.  One rank lower is a
    single instance, batched as one; at rank 3 the (N, C, 1, L) blocks lose
    their height axis and get it back."""
    x = check_finite(as_tensor(x), where)
    if x.ndim == rank:
        return x, lambda y: y
    if x.ndim == rank - 1:
        return x.reshape(1, *x.shape), lambda y: y.reshape(*y.shape[1:])
    if rank == 3 and x.ndim == 4:
        return (drop_height(x, where),
                lambda y: y.reshape(y.shape[0], y.shape[1], 1, y.shape[2]))
    ranks = "2-d, 3-d or 4-d" if rank == 3 else f"{rank - 1}-d or {rank}-d"
    raise DataError(f"{where}: expected {ranks} input, got shape {x.shape}")


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


@lru_cache(maxsize=256)
def _tap_rows(spec: ConvSpec, l: int, l_out: int) -> tuple:
    """Per tap j of the padded input: the outputs [lo, hi) whose tap j reads
    a row of the unpadded input, and the strided slice of the rows they read.
    The other outputs read the zero padding."""
    s, p = spec.stride, spec.padding
    rows = []
    for j, tap in enumerate(_taps(spec, l_out)):
        lo = min(l_out, max(0, -((tap.start - p) // s)))
        hi = max(lo, min(l_out, (l - 1 + p - tap.start) // s + 1))
        first = tap.start - p + lo * s
        rows.append((j, lo, hi, slice(first, first + (hi - lo) * s, s)))
    return tuple(rows)


# The conv kernels work channels-last, on (batch, length, channels) blocks:
# an im2col window matrix and one GEMM per pass.  conv1d_forward and the
# autoencoder and classifier conv-stack nodes all run on them.

def _conv_forward(x: np.ndarray, spec: ConvSpec, weight: Tensor, bias: Tensor):
    """Convolve a channels-last (b, l, c) block: the (b, l_out, out_channels)
    result and the cache ``_conv_backward`` needs.

    The window matrix, (b * l_out, kernel * c), is the one window-sized copy:
    row (n, i) holds taps 0..k-1 of output i, written one strided copy per
    tap straight from ``x``, with zero rows where a tap reads the padding.
    """
    b, l, c = x.shape
    if c != spec.in_channels:
        raise DataError(f"conv1d expects {spec.in_channels} channels, got {c} "
                        f"(input {(b, c, l)})")
    if weight.shape != (spec.out_channels, spec.in_channels, spec.kernel_size):
        raise DataError(f"conv1d weight shape {weight.shape} does not match {spec}")
    if bias.shape != (spec.out_channels,):
        raise DataError(f"conv1d bias shape {bias.shape} does not match {spec}")
    l_out = conv1d_out_len(spec, l)
    d, k = spec.out_channels, spec.kernel_size
    cols = np.empty((b, l_out, k, c))
    for j, lo, hi, rows in _tap_rows(spec, l, l_out):
        if lo:
            cols[:, :lo, j] = 0.0
        cols[:, lo:hi, j] = x[:, rows]
        if hi < l_out:
            cols[:, hi:, j] = 0.0
    cols = cols.reshape(b * l_out, k * c)
    w2 = weight.data.transpose(0, 2, 1).reshape(d, k * c)
    out = (cols @ w2.T + bias.data).reshape(b, l_out, d)
    return out, (spec, weight, bias, cols, w2, x.shape)


def _conv_backward(g: np.ndarray, cache, need_input: bool):
    """Given the gradient of a ``_conv_forward`` result, (b, l_out, d),
    accumulate the weight and bias gradients; with ``need_input``, return
    the channels-last input gradient (b, l, c), added tap by tap."""
    spec, weight, bias, cols, w2, (b, l, c) = cache
    d, k = spec.out_channels, spec.kernel_size
    l_out = g.shape[1]
    g2 = np.ascontiguousarray(g.reshape(b * l_out, d))
    if weight.requires_grad:
        weight._accumulate((g2.T @ cols).reshape(d, k, c).transpose(0, 2, 1))
    if bias.requires_grad:
        bias._accumulate(g2.sum(axis=0))
    if not need_input:
        return None
    gcols = (g2 @ w2).reshape(b, l_out, k, c)
    gx = np.zeros((b, l, c))
    for j, lo, hi, rows in _tap_rows(spec, l, l_out):
        gx[:, rows] += gcols[:, lo:hi, j]
    return gx


def conv1d_forward(x, spec: ConvSpec, weight: Tensor, bias: Tensor) -> Tensor:
    """Cross-correlation along the last axis, lowered to one matrix product
    per pass over a (batch * l_out, kernel * in_channels) window matrix.

    weight is (out_channels, in_channels, kernel_size); bias is (out_channels,).
    """
    x3, back = _entering(x, "conv1d")
    out, cache = _conv_forward(x3.data.transpose(0, 2, 1), spec, weight, bias)

    def backward(g):
        gx = _conv_backward(g.transpose(0, 2, 1), cache, x3.requires_grad)
        if gx is not None:
            x3._accumulate(gx.transpose(0, 2, 1))

    return back(_node(out.transpose(0, 2, 1), (x3, weight, bias), backward))


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


def _pool_taps(kernel: int, stride: int, l: int) -> list:
    """The tap slices of windowed pooling over length ``l``."""
    if kernel > l:
        raise DataError(f"pool kernel {kernel} exceeds length {l}")
    spec = ConvSpec(1, 1, kernel, stride)
    return _taps(spec, conv1d_out_len(spec, l))


def _running_max(first: np.ndarray, rest, track: bool = True) -> tuple:
    """The maximum of ``first`` and each array of ``rest`` in turn, with a
    strict > so the first maximum wins, and, when ``track``, the index of
    the winning tap (else None)."""
    out = first
    arg = np.zeros(first.shape, dtype=np.intp) if track else None
    for j, xj in enumerate(rest, 1):
        larger = xj > out
        out = np.where(larger, xj, out)
        if track:
            arg = np.where(larger, j, arg)
    return out, arg


def _pool_grad(g: np.ndarray, arg: np.ndarray, taps: list, shape, axis: int) -> np.ndarray:
    """The input gradient of a pooling along ``axis``: each window's gradient
    goes to its winning tap, and overlapping windows add."""
    gx = np.zeros(shape)     # a negative g * False is -0.0, and 0.0 + -0.0 is +0.0
    lead = (slice(None),) * axis
    for j, tap in enumerate(taps):
        gx[lead + (tap,)] += g * (arg == j)
    return gx


def _repeat_grad(g: np.ndarray, factor: int, axis: int) -> np.ndarray:
    """The input gradient of ``np.repeat(x, factor, axis)``: each repeat
    group summed copy by copy in order (numpy's own order below factor 8;
    it sums 8 or more pairwise)."""
    lead = (slice(None),) * axis
    return sum(g[lead + (slice(j, None, factor),)] for j in range(factor))


def maxpool1d(x, kernel: int, stride: int | None = None) -> Tensor:
    """Windowed maximum along the last axis; gradient flows to the first
    maximum of each window (ties resolved to the lowest position)."""
    if kernel < 1:
        raise DataError(f"pool kernel must be >= 1, got {kernel}")
    stride = kernel if stride is None else stride
    if stride < 1:
        raise DataError(f"pool stride must be >= 1, got {stride}")
    x3, back = _entering(x, "maxpool1d")
    taps = _pool_taps(kernel, stride, x3.shape[2])
    out_data, arg = _running_max(x3.data[:, :, taps[0]].copy(),
                                 [x3.data[:, :, tap] for tap in taps[1:]], x3.requires_grad)

    def backward(g):
        x3._accumulate(_pool_grad(g, arg, taps, x3.shape, axis=2))

    return back(_node(out_data, (x3,), backward))


def upsample_nearest(x, factor: int) -> Tensor:
    """Repeat each position ``factor`` times along the last axis; the
    backward pass sums the gradient over each repeat group in order."""
    if factor < 1:
        raise DataError(f"upsample factor must be >= 1, got {factor}")
    x3, back = _entering(x, "upsample_nearest")
    out_data = np.repeat(x3.data, factor, axis=2)

    def backward(g):
        x3._accumulate(_repeat_grad(g, factor, axis=2))

    return back(_node(out_data, (x3,), backward))


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
    a_prev, _ = _entering(a_prev, "lstm_step a_prev", rank=2)
    c_prev, _ = _entering(c_prev, "lstm_step c_prev", rank=2)
    x, back = _entering(x, "lstm_step x", rank=2)
    h, d = cell.hidden_size, cell.input_size
    states = (x.shape[0], h)
    if x.shape[1] != d or a_prev.shape != states or c_prev.shape != states:
        raise DataError(f"lstm_step dims: x {x.shape}, a_prev {a_prev.shape}, "
                        f"c_prev {c_prev.shape} vs hidden={h}, input={d}")
    state = _lstm_sequence(cell, x.reshape(x.shape[0], 1, d), a_prev, c_prev)
    return back(state[:, :h]), back(state[:, h:])


def lstm_many_to_one(cell: LstmCell, sequence) -> Tensor:
    """Run the cell over a sequence from zero states and return the final
    hidden state.

    ``sequence`` is a list of per-step inputs, a (T, input) array, or a
    (batch, T, input) block; the result is (hidden,) or (batch, hidden).
    """
    if isinstance(sequence, Tensor) or isinstance(sequence, np.ndarray):
        seq = as_tensor(sequence)
    else:
        steps = [as_tensor(s) for s in sequence]
        if not steps:
            raise DataError("empty sequence")
        # stack on the step axis: (input,) steps give (T, input)
        seq = concat([s.reshape(*s.shape[:-1], 1, s.shape[-1]) for s in steps], axis=-2)
    if seq.ndim not in (2, 3):      # a sequence has no height axis
        raise DataError(f"lstm_many_to_one: sequence must be (T, input) or "
                        f"(batch, T, input), got {seq.shape}")
    seq, back = _entering(seq, "lstm_many_to_one")
    if seq.shape[1] == 0:
        raise DataError("empty sequence")
    if seq.shape[2] != cell.input_size:
        raise DataError(f"lstm expects {cell.input_size} inputs per step, got {seq.shape}")
    h = cell.hidden_size
    zeros = Tensor(np.zeros((seq.shape[0], h)))
    return back(_lstm_sequence(cell, seq, zeros, zeros)[:, :h])


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
    x, back = _entering(x, "dense", rank=2)
    if x.shape[1] != weight.shape[1]:
        raise DataError(f"dense expects {weight.shape[1]} features, got {x.shape[1]}")
    return back(matmul(x, weight.transpose(1, 0)) + bias)


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
