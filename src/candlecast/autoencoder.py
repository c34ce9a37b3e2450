"""Channel-compressing convolutional autoencoders.

One model per correlated channel group (price-like, non-price-like).  The
encoder squeezes channels in two stages, in -> mid -> code with
mid = ceil((in + code) / 2), while height and width never change: each
stage is a width-preserving Conv1d (k=3, s=1, p=1) + ReLU, then
MaxPool(2,2) immediately undone by Upsample(2).  The decoder mirrors the
schedule back up and finishes with a final linear convolution after the
last upsample, so a convolution (not an upsample) produces the output.
The encoder and the decoder each run as one graph node with a
hand-written backward, on the conv kernels of ``nn.layers``.

Training minimizes mean-squared reconstruction error with the
adaptive-moment optimizer, then the model is frozen before the classifier
ever sees a code.  The raw-candle group never passes through here.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DataError
from .nn import Conv1d, ConvSpec, Tensor, as_tensor, mse_loss
from .nn.layers import (_conv_backward, _conv_forward, _entering, _pool_grad,
                        _pool_taps, _repeat_grad, _running_max, as_batch,
                        check_finite, drop_height)
from .nn.optim import fit
from .nn.tensor import _node, infer


# instances per encode pass: bounds the transient conv window matrices, so
# whole-dataset encoding peaks below AE training (measured, 1000 candles)
_CHUNK = 256


def max_code_channels(in_channels: int) -> int:
    """The widest code an autoencoder over ``in_channels`` channels takes.

    A code is at least one channel and narrower than its input, so a group
    needs two channels to have an autoencoder at all (below that this is 0).
    """
    return in_channels - 1


class AutoencoderModel:
    def __init__(self, in_channels: int, code_channels: int, width: int,
                 rng: np.random.Generator, name: str = "ae"):
        if not 1 <= code_channels <= max_code_channels(in_channels):
            raise ConfigError(f"need 1 <= code_channels < in_channels, "
                              f"got code={code_channels}, in={in_channels}")
        if width < 2 or width % 2:
            raise ConfigError(f"width {width} is not divisible by the pool stages; "
                              "pick an even window")
        self.in_channels = int(in_channels)
        self.code_channels = int(code_channels)
        self.width = int(width)
        self.mid_channels = math.ceil((in_channels + code_channels) / 2)
        self.name = name
        conv = lambda cin, cout, tag: Conv1d(ConvSpec(cin, cout, 3, 1, 1), rng,
                                             name=f"{name}.{tag}")
        self.enc1 = conv(self.in_channels, self.mid_channels, "enc1")
        self.enc2 = conv(self.mid_channels, self.code_channels, "enc2")
        self.dec1 = conv(self.code_channels, self.mid_channels, "dec1")
        self.dec2 = conv(self.mid_channels, self.in_channels, "dec2")
        self.conv_f = conv(self.in_channels, self.in_channels, "conv_f")
        self.trained = False
        self.loss_history: list[float] = []

    def parameters(self) -> dict:
        out = {}
        for layer in (self.enc1, self.enc2, self.dec1, self.dec2, self.conv_f):
            out.update(layer.parameters())
        return out

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters().values())

    def encode_forward(self, x) -> Tensor:
        x, back = _entering(self._check(x), "conv1d")
        return back(_stack(x, (self.enc1, self.enc2)))

    def decode_forward(self, code) -> Tensor:
        code, back = _entering(code, "conv1d")
        return back(_stack(code, (self.dec1, self.dec2), self.conv_f))

    def reconstruct(self, x) -> Tensor:
        return self.decode_forward(self.encode_forward(x))

    def _check(self, x) -> Tensor:
        x = as_tensor(x)
        if drop_height(x.data, "autoencoder input").shape[-2:] != (self.in_channels, self.width):
            raise DataError(f"expected {self.in_channels} channels x width {self.width}, "
                            f"got input shape {x.shape}")
        return x


def _stack(x: Tensor, blocks: tuple, final: Conv1d | None = None) -> Tensor:
    """``blocks``, each Conv1d -> ReLU -> MaxPool(2, 2) -> Upsample(2), then
    ``final`` with no activation, over a (b, c, l) Tensor as one graph node
    with a hand-written backward.

    Activations stay channels-last between the convolutions.  A block pools
    its conv output with the relu on the first tap of each pair only: the
    pair's value is relu(a), or b where b > relu(a).  That is the maximum of
    (relu(a), relu(b)) with the first maximum winning, bit for bit and NaN
    included, so the gradient reaches the winner when its value is positive.
    Each block's pooled values are checked as ``maxpool1d`` checks the relu
    output: they are finite exactly when it is.
    """
    h = x.data.transpose(0, 2, 1)
    saved = []
    for layer in blocks:
        y, cache = _conv_forward(h, layer.spec, layer.weight, layer.bias)
        taps = _pool_taps(2, 2, y.shape[1])
        pooled, arg = _running_max(np.fmax(y[:, taps[0]], 0.0) + 0.0, [y[:, taps[1]]])
        check_finite(pooled, "maxpool1d")
        h = np.repeat(pooled, 2, axis=1)
        saved.append((cache, y.shape, taps, pooled, arg))
    convs = blocks
    if final is not None:
        h, final_cache = _conv_forward(h, final.spec, final.weight, final.bias)
        convs = blocks + (final,)

    def backward(g):
        g = g.transpose(0, 2, 1)
        if final is not None:
            g = _conv_backward(g, final_cache, True)
        for i in reversed(range(len(saved))):
            cache, shape, taps, pooled, arg = saved[i]
            keep = _repeat_grad(g, 2, axis=1) * (pooled > 0)
            g = _pool_grad(keep, arg, taps, shape, axis=1)
            g = _conv_backward(g, cache, i > 0 or x.requires_grad)
        if x.requires_grad:
            x._accumulate(g.transpose(0, 2, 1))

    params = [p for conv in convs for p in conv.parameters().values()]
    return _node(h.transpose(0, 2, 1), (x, *params), backward)


def build_autoencoder(in_channels: int, code_channels: int, width: int,
                      seed: int | np.random.Generator = 0,
                      name: str = "ae") -> AutoencoderModel:
    rng = np.random.default_rng(seed)
    return AutoencoderModel(in_channels, code_channels, width, rng, name=name)


def train_autoencoder(model: AutoencoderModel, batches: np.ndarray,
                      epochs: int = 200, lr: float = 1e-3, batch_size: int = 64,
                      seed: int = 0, improve_tol: float = 1e-6,
                      patience: int = 10) -> list[float]:
    """Fit the reconstruction objective on training windows only.

    Shuffles with its own seeded stream, so a fixed seed reproduces the run
    bit for bit.  Stops early once the mean loss of the latest ``patience``
    epochs improves on the previous window by less than ``improve_tol``.
    Returns the per-epoch loss history (also kept on the model).  A
    numeric blow-up (non-finite loss or activations) raises
    TrainingDiverged.
    """
    X = as_batch(batches, "batch")
    model._check(X[:1])
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if epochs == 0:
        return model.loss_history

    def batch_loss(idx):
        xb = Tensor(X[idx])
        return mse_loss(model.reconstruct(xb), xb)

    def plateaued(history):
        return (len(history) >= 2 * patience
                and float(np.mean(history[-2 * patience:-patience]))
                - float(np.mean(history[-patience:])) < improve_tol)

    fit(model.parameters(), lr, X.shape[0], batch_size, np.random.default_rng(seed),
        batch_loss, epochs, model.loss_history, plateaued)
    model.trained = True
    return model.loss_history


def encode(model: AutoencoderModel, batch: np.ndarray) -> np.ndarray:
    """Deterministic inference: (n, c, 1, w) or (n, c, w) in, codes out with
    ``code_channels`` channels and the same height/width arrangement.
    Instances are encoded in fixed chunks with no autograd graph."""
    return infer(model, model.encode_forward, [batch], _CHUNK)


def decode(model: AutoencoderModel, codes: np.ndarray) -> np.ndarray:
    return infer(model, model.decode_forward, [codes])
