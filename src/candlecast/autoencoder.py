"""Channel-compressing convolutional autoencoders.

One model per correlated channel group (price-like, non-price-like).  The
encoder squeezes channels in two stages, in -> mid -> code with
mid = ceil((in + code) / 2), while height and width never change: each
stage is a width-preserving Conv1d (k=3, s=1, p=1) + ReLU, then
MaxPool(2,2) immediately undone by Upsample(2).  The decoder mirrors the
schedule back up and finishes with a final linear convolution after the
last upsample, so a convolution (not an upsample) produces the output.

Training minimizes mean-squared reconstruction error with the
adaptive-moment optimizer, then the model is frozen before the classifier
ever sees a code.  The raw-candle group never passes through here.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DataError
from .nn import (Conv1d, ConvSpec, Tensor, as_tensor, maxpool1d, mse_loss,
                 relu, upsample_nearest)
from .nn.layers import as_batch
from .nn.optim import fit
from .nn.tensor import infer


# instances per encode pass: bounds the transient conv window matrices, so
# whole-dataset encoding peaks below AE training (measured, 1000 candles)
_CHUNK = 256


class AutoencoderModel:
    def __init__(self, in_channels: int, code_channels: int, width: int,
                 rng: np.random.Generator, name: str = "ae"):
        if code_channels < 1 or code_channels >= in_channels:
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

    def _block(self, layer: Conv1d, x: Tensor) -> Tensor:
        return upsample_nearest(maxpool1d(relu(layer(x)), 2, 2), 2)

    def encode_forward(self, x) -> Tensor:
        x = self._check(x)
        return self._block(self.enc2, self._block(self.enc1, x))

    def decode_forward(self, code) -> Tensor:
        code = as_tensor(code)
        return self.conv_f(self._block(self.dec2, self._block(self.dec1, code)))

    def reconstruct(self, x) -> Tensor:
        return self.decode_forward(self.encode_forward(x))

    def _check(self, x) -> Tensor:
        x = as_tensor(x)
        shape = x.shape
        c = shape[-3] if x.ndim == 4 else shape[-2] if x.ndim == 3 else shape[0]
        w = shape[-1]
        if c != self.in_channels or w != self.width:
            raise DataError(f"expected {self.in_channels} channels x width {self.width}, "
                            f"got input shape {shape}")
        return x


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
