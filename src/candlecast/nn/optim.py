"""Adaptive-moment (Adam) parameter updates with bias correction, and the
mini-batch fit loop both networks train with."""
from __future__ import annotations

import math

import numpy as np

from ..errors import DataError, NonFiniteError, TrainingDiverged
from .tensor import Tensor


def adam_step(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected moment update; returns (new_value, new_m, new_v).

    ``t`` is the 1-based step count.  A zero gradient leaves the value
    untouched only while the moments are also zero (fresh state).
    """
    if t < 1:
        raise DataError(f"step count must be >= 1, got {t}")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class Adam:
    """Packs the parameters, in the order given, into one flat float64
    vector, with one flat gradient and one moment pair beside it; each
    parameter's ``.data`` and ``.grad`` become reshaped views into them.
    ``step()`` consumes ``.grad`` in one ``adam_step`` over every parameter
    and ``zero_grad()`` clears it for the next accumulation."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if isinstance(params, dict):
            params = list(params.values())
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise DataError("no parameters to optimize")
        for p in self.params:
            if not p.requires_grad:
                raise DataError(f"parameter {p.name!r} does not track gradients")
        if len({id(p) for p in self.params}) != len(self.params):
            raise DataError("a parameter is listed twice")
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.t = 0
        ends = np.cumsum([p.data.size for p in self.params])
        self._data, self._grad, self._m, self._v = (np.zeros(int(ends[-1])) for _ in range(4))
        self._views = [(self._data[a:b].reshape(p.shape), self._grad[a:b].reshape(p.shape))
                       for p, a, b in zip(self.params, (0, *ends[:-1]), ends)]
        self._adopt()

    def _adopt(self) -> None:
        """Copy each ``.data`` or ``.grad`` rebound away from its view into
        its slice (a ``.grad`` of None as zeros) and point it back at the
        view; one identity test per array when nothing was rebound."""
        for p, (data, grad) in zip(self.params, self._views):
            if p.data is not data:
                data[...] = p.data
                p.data = data
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else p.grad
                p.grad = grad

    def zero_grad(self) -> None:
        self._grad.fill(0.0)
        for p, (_, grad) in zip(self.params, self._views):
            p.grad = grad

    def step(self) -> None:
        self.t += 1
        self._adopt()
        self._data[:], self._m, self._v = adam_step(
            self._data, self._grad, self._m, self._v, self.t,
            self.lr, self.beta1, self.beta2, self.eps)


def fit(params, lr: float, n: int, batch_size: int, rng: np.random.Generator,
        batch_loss, epochs: int, history: list, stop) -> list:
    """Mini-batch Adam over ``n`` instances for up to ``epochs`` epochs.

    Each epoch visits the instances in a ``rng``-shuffled order: for each
    mini-batch of indices, ``batch_loss(idx)`` builds the loss, then
    backward and one optimizer step.  The epoch's instance-weighted mean
    loss is appended to ``history``, and training stops early once
    ``stop(history)`` holds.  Returns ``history``.  A non-finite loss, or
    NaN/Inf reaching a layer, raises TrainingDiverged; the overflow leading
    up to it emits no numpy warning."""
    opt = Adam(params, lr=lr)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            opt.zero_grad()
            try:
                # overflow is reported as TrainingDiverged, not as numpy warnings
                with np.errstate(over="ignore", invalid="ignore"):
                    loss = batch_loss(idx)
                    loss.backward()
            except NonFiniteError as exc:
                raise TrainingDiverged(f"numeric blow-up in epoch {epoch}: {exc}") from exc
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingDiverged(f"non-finite loss in epoch {epoch}")
            total += value * idx.shape[0]
            opt.step()
        history.append(total / n)
        if stop(history):
            break
    return history
