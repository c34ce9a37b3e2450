"""Classifier training loop with a quality gate on the final loss.

The cross-entropy is tracked in both natural and base-10 logs; the gate
statistic is sigma* = 10^(-loss_10) = exp(-loss_e), the geometric-mean
probability the model assigned to the realized direction.  A run counts as
well trained only when sigma* reaches the bar ``zeta`` (default 0.8);
anything lower is reported as under-fitted so downstream consumers can
refuse to trade on it.

Convergence watches the latest ``patience`` base-10 losses: with X[0] the
oldest of that tail, the mean of the secant slopes (X[i] - X[0]) / i must
rise above ``slope_threshold`` (a small negative number) for training to
stop early, i.e. the loss has to keep falling at a meaningful rate to keep
the loop alive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifier import INPUTS, ClassifierModel, forward
from .errors import ConfigError, DataError
from .framing import read_rows, write_rows
from .nn import bce_loss
from .nn.layers import as_batch
from .nn.optim import fit

_LN10 = math.log(10.0)


def loss_base10(loss_e: float) -> float:
    """Natural-log cross-entropy rescaled to base 10."""
    return float(loss_e) / _LN10


def sigma_star(loss_10: float) -> float:
    """Training-quality statistic 10^(-loss_10) in (0, 1]."""
    loss_10 = float(loss_10)
    if loss_10 < 0.0:
        raise DataError(f"loss must be non-negative, got {loss_10}")
    return 10.0 ** (-loss_10)


def quality_gate(sigma: float, zeta: float = 0.8) -> bool:
    """True when the quality statistic clears the bar: sigma* >= zeta."""
    for label, value in (("sigma", sigma), ("zeta", zeta)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{label} must be in [0, 1], got {value}")
    return sigma >= zeta


def has_converged(losses, patience: int = 10, slope_threshold: float = -1e-4) -> bool:
    """Plateau test over the latest ``patience`` losses.

    Averages the secant slopes from the oldest point of the tail to each
    later one; once that average is no longer meaningfully negative the
    curve is flat (or rising) and the loop can stop.  Fewer than
    ``patience`` losses never count as converged.
    """
    if patience < 2:
        raise ConfigError(f"patience must be at least 2, got {patience}")
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1:
        raise ConfigError(f"losses must be a 1-d sequence, got shape {losses.shape}")
    if losses.shape[0] < patience:
        return False
    tail = losses[-patience:]
    i = np.arange(1, patience)
    slopes = (tail[1:] - tail[0]) / i
    return bool(np.mean(slopes) > slope_threshold)


@dataclass(frozen=True)
class TrainConfig:
    zeta: float = 0.8
    patience: int = 10               # loss-history window length for the plateau test
    slope_threshold: float = -1e-4
    max_epochs: int = 2000
    learning_rate: float = 1e-3
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.zeta < 1.0:
            raise ConfigError(f"zeta must be in (0, 1), got {self.zeta}")
        if self.patience < 2:
            raise ConfigError(f"patience must be at least 2, got {self.patience}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be positive, got {self.max_epochs}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if not math.isfinite(self.slope_threshold):
            raise ConfigError(f"slope threshold must be finite, got {self.slope_threshold}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")


@dataclass
class TrainReport:
    status: str                  # "well_trained" | "under_fitted"
    epochs_run: int
    converged: bool
    loss_e: float
    loss_10: float
    sigma_star: float
    history: list = field(default_factory=list)   # rows (loss_e, loss_10, sigma_star)

    @property
    def well_trained(self) -> bool:
        return self.status == "well_trained"


def train_classifier(model: ClassifierModel, ohlcv, price_code, non_price_code,
                     labels, config: TrainConfig = TrainConfig(),
                     seed: int | np.random.Generator | None = None) -> TrainReport:
    """Mini-batch Adam on cross-entropy with a gated early stop.

    The loop ends early only when BOTH the quality gate passes (sigma* >=
    zeta) and the loss has plateaued; a run that never clears the gate
    burns through ``max_epochs`` and is reported under-fitted.  The model
    is always left marked trained (the weights are fitted either way).  A
    numeric blow-up (non-finite loss or activations) raises
    TrainingDiverged.
    """
    groups = [as_batch(x, label) for x, label in
              zip((ohlcv, price_code, non_price_code), INPUTS)]
    y = np.asarray(labels, dtype=float).reshape(-1)
    n = groups[0].shape[0]
    for g, label in zip(groups, INPUTS):
        if g.shape[0] != n:
            raise DataError(f"{label}: batch {g.shape[0]} != {n}")
    if y.shape[0] != n:
        raise DataError(f"labels: {y.shape[0]} rows for {n} instances")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be 0 or 1")

    rng = np.random.default_rng(config.seed if seed is None else seed)

    def batch_loss(idx):
        sigma = forward(model, *(g[idx] for g in groups), training=True, rng=rng)
        return bce_loss(sigma, y[idx])

    def converged(losses):
        return has_converged([loss_base10(v) for v in losses[-config.patience:]],
                             config.patience, config.slope_threshold)

    def gated_plateau(losses):
        return converged(losses) and quality_gate(sigma_star(loss_base10(losses[-1])),
                                                  config.zeta)

    losses = fit(model.parameters(), config.learning_rate, n, config.batch_size, rng,
                 batch_loss, config.max_epochs, [], gated_plateau)
    model.trained = True
    history = [(e, loss_base10(e), sigma_star(loss_base10(e))) for e in losses]
    loss_e, l10, star = history[-1]
    status = "well_trained" if quality_gate(star, config.zeta) else "under_fitted"
    return TrainReport(status=status, epochs_run=len(losses), converged=converged(losses),
                       loss_e=loss_e, loss_10=l10, sigma_star=star, history=history)


_HISTORY_HEADER = "epoch,loss_e,loss_10,sigma_star"


def write_history_csv(history, path) -> None:
    """Loss curve as ``epoch,loss_e,loss_10,sigma_star`` with 1-based epochs."""
    write_rows(path, _HISTORY_HEADER,
               ((epoch, *row) for epoch, row in enumerate(history, start=1)))


def read_history_csv(path) -> list:
    return read_rows(path, _HISTORY_HEADER, "loss-history file",
                     lambda f: tuple(map(float, f[1:])))
