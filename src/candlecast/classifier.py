"""Direction classifier: three conv branches -> LSTM -> dense head -> sigma.

Each channel group (raw candles, price-like codes, non-price-like codes)
passes through its own branch: MaxPool(3,3) shrinks the width to
window/3, then two width-preserving Conv1d+ReLU stages lift the group to
a common channel count.  The three branches run as one graph node whose
output is the branch channels side by side, read as a sequence of length
window/3 whose per-step feature vector is the concatenated channel
column; a many-to-one LSTM (hidden 20) summarizes
the sequence, and a dense 20->10 ReLU layer with dropout 0.3 plus a final
dense 10->1 sigmoid produce sigma in (0,1), the probability that the next
close rises.
"""
from __future__ import annotations

import numpy as np

from .dataset import GROUPS
from .errors import ConfigError, DataError
from .nn import (Conv1d, ConvSpec, Dense, LstmCell, Tensor, as_tensor, dropout,
                 lstm_many_to_one, relu, sigmoid)
from .nn.layers import (_conv_backward, _conv_forward, _entering, _pool_grad,
                        _pool_taps, _running_max, check_finite, drop_height)
from .nn.tensor import _node, infer

INPUTS = ("ohlcv", "price_code", "non_price_code")    # one per group of GROUPS


class _Branch:
    def __init__(self, in_channels: int, out_channels: int, rng, name: str):
        self.conv1 = Conv1d(ConvSpec(in_channels, out_channels, 3, 1, 1), rng,
                            name=f"{name}.conv1")
        self.conv2 = Conv1d(ConvSpec(out_channels, out_channels, 3, 1, 1), rng,
                            name=f"{name}.conv2")

    def __call__(self, x) -> Tensor:
        """(batch, out_channels, width/3) from (batch, in_channels, width)."""
        x, back = _entering(x, "maxpool1d")
        return back(_branches((self,), (x,)).transpose(0, 2, 1))

    def parameters(self) -> dict:
        return {**self.conv1.parameters(), **self.conv2.parameters()}


class ClassifierModel:
    def __init__(self, ohlcv_channels: int, price_channels: int,
                 non_price_channels: int, window: int, rng: np.random.Generator,
                 hidden_size: int = 20, branch_channels: int = 8,
                 dropout_rate: float = 0.3, name: str = "clf"):
        if window % 3:
            raise ConfigError(f"window {window} is not divisible by 3; the branch "
                              "pooling needs a window like 24")
        channels = (ohlcv_channels, price_channels, non_price_channels)
        for label, c in zip(GROUPS, channels):
            if c < 1:
                raise ConfigError(f"{label} branch needs at least 1 channel, got {c}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {dropout_rate}")
        self.window = int(window)
        self.seq_len = window // 3
        self.group_channels = tuple(map(int, channels))
        self.branch_channels = int(branch_channels)
        self.hidden_size = int(hidden_size)
        self.dropout_rate = float(dropout_rate)
        self.name = name
        # built in group order, which fixes the rng draws
        self.branches = tuple(_Branch(c, branch_channels, rng, f"{name}.{label}")
                              for label, c in zip(GROUPS, channels))
        self.lstm = LstmCell(3 * branch_channels, hidden_size, rng, name=f"{name}.lstm")
        self.fc1 = Dense(hidden_size, 10, rng, name=f"{name}.fc1")
        self.fc2 = Dense(10, 1, rng, name=f"{name}.fc2")
        self.trained = False

    def parameters(self) -> dict:
        out = {}
        for b in self.branches:
            out.update(b.parameters())
        out.update(self.lstm.parameters())
        out.update(self.fc1.parameters())
        out.update(self.fc2.parameters())
        return out

    def zero_head(self) -> None:
        """Zero both head layers; the output becomes exactly 0.5 everywhere."""
        for layer in (self.fc1, self.fc2):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0


def _branches(branches: tuple, groups: tuple) -> Tensor:
    """The branches over their (b, c, w) group Tensors as one graph node with
    a hand-written backward: the (b, w/3, n * out_channels) sequence of the
    branch outputs side by side, channels-last.

    Checks, branch by branch, the group (``maxpool1d``) and the first relu
    output (``conv1d``), where the composed layers check them; relu maps a
    NaN to 0, so a check moved later could miss a blow-up.
    """
    outs, saved = [], []
    for branch, x in zip(branches, groups):
        check_finite(x, "maxpool1d")
        taps = _pool_taps(3, 3, x.shape[2])
        pooled, arg = _running_max(x.data[:, :, taps[0]], [x.data[:, :, t] for t in taps[1:]],
                                   x.requires_grad)
        conv1, conv2 = branch.conv1, branch.conv2
        y1, cache1 = _conv_forward(pooled.transpose(0, 2, 1), conv1.spec, conv1.weight,
                                   conv1.bias)
        r1 = check_finite(np.fmax(y1, 0.0) + 0.0, "conv1d")    # relu, as tensor.relu
        y2, cache2 = _conv_forward(r1, conv2.spec, conv2.weight, conv2.bias)
        outs.append(np.fmax(y2, 0.0) + 0.0)
        saved.append((x, taps, arg, y1, cache1, y2, cache2))
    seq = np.concatenate(outs, axis=2)

    def backward(g):
        start = 0
        for x, taps, arg, y1, cache1, y2, cache2 in saved:
            width = y2.shape[2]
            g2 = g[:, :, start:start + width] * (y2 > 0) + 0.0
            start += width
            g1 = _conv_backward(g2, cache2, True) * (y1 > 0) + 0.0
            gp = _conv_backward(g1, cache1, x.requires_grad)
            if x.requires_grad:
                x._accumulate(_pool_grad(gp.transpose(0, 2, 1), arg, taps, x.shape, axis=2))

    params = [p for b in branches for p in b.parameters().values()]
    return _node(seq, (*groups, *params), backward)


def _group_tensor(x, channels: int, window: int, label: str) -> Tensor:
    x = drop_height(as_tensor(x), label)
    if x.ndim != 3:
        raise DataError(f"{label}: expected (batch, channels, width), got {x.shape}")
    if x.shape[1] != channels:
        raise DataError(f"{label}: expected {channels} channels, got {x.shape[1]}")
    if x.shape[2] != window:
        raise DataError(f"{label}: expected width {window}, got {x.shape[2]}")
    return x


def forward(model: ClassifierModel, ohlcv, price_code, non_price_code,
            training: bool = False, rng: np.random.Generator | int = 0) -> Tensor:
    """Probability that the next close rises, per instance: Tensor (batch,).

    ``training`` switches dropout on; pass a generator (or seed) to make the
    masks reproducible.
    """
    groups = []
    batch = None
    for x, channels, label in zip((ohlcv, price_code, non_price_code),
                                  model.group_channels, INPUTS):
        t = _group_tensor(x, channels, model.window, label)
        if batch is None:
            batch = t.shape[0]
        elif t.shape[0] != batch:
            raise DataError(f"{label}: batch {t.shape[0]} != {batch}")
        groups.append(t)
    sequence = _branches(model.branches, groups)   # (batch, seq_len, 3*branch_channels)
    summary = lstm_many_to_one(model.lstm, sequence)
    hidden = relu(model.fc1(summary))
    hidden = dropout(hidden, model.dropout_rate, rng, training=training)
    logit = model.fc2(hidden)
    return sigmoid(logit.reshape(batch))


def predict_batch(model: ClassifierModel, ohlcv, price_code, non_price_code,
                  chunk: int = 512) -> np.ndarray:
    """Deterministic inference over aligned group batches; dropout off.

    Chunking bounds memory; a fixed chunk size gives bit-identical output
    run to run (chunk size itself only reorders BLAS accumulation).
    """
    return infer(model, lambda *groups: forward(model, *groups),
                 [ohlcv, price_code, non_price_code], chunk)


def build_classifier(ohlcv_channels: int, price_channels: int, non_price_channels: int,
                     window: int, seed: int | np.random.Generator = 0,
                     hidden_size: int = 20, branch_channels: int = 8,
                     dropout_rate: float = 0.3) -> ClassifierModel:
    rng = np.random.default_rng(seed)
    return ClassifierModel(ohlcv_channels, price_channels, non_price_channels,
                           window, rng, hidden_size=hidden_size,
                           branch_channels=branch_channels, dropout_rate=dropout_rate)
