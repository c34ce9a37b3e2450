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
    """Holds per-parameter moment state; ``step()`` consumes ``.grad`` and
    ``zero_grad()`` clears it for the next accumulation."""

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
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.data, self._m[i], self._v[i] = adam_step(
                p.data, grad, self._m[i], self._v[i], self.t,
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
