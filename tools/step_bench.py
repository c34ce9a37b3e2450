"""Micro-benchmark of one training step at the default shapes.

    python3 tools/step_bench.py

Times mini-batch steps of the channel autoencoder at 8 and 17 channels
and of the classifier (groups 5/4/4), at the default window, code size,
batch sizes, learning rates and classifier widths, on random inputs and one
BLAS thread.  A step is what ``fit`` does per mini-batch: ``zero_grad``,
the loss, ``backward`` and one ``Adam.step``.  Each case prints the median
over REPEATS repeats of STEPS steps of the microseconds per step, and the
minor page faults per step (``resource.getrusage``) of the fastest repeat.

The LSTM case times the classifier's recurrence alone the same way: one
``lstm_many_to_one`` forward and backward (an all-ones upstream gradient)
per call, at batch ``batch_size``, window/3 steps, 3 x
``clf_branch_channels`` inputs and ``clf_hidden`` hidden units.

A last case times the GBDT feature ranking (``fit_gbdt``, the default
``gbdt_*`` settings but GBDT_ROUNDS rounds) on the default grid's
features of ``sine_market(seed=7)`` before denoising, over the training
rows the pipeline uses (a 3158 x 64 matrix), and prints the median over
REPEATS fits of the milliseconds per boosting round, the argsort of the
columns included.  Run it from the repository root or anywhere else; it
imports ``src/candlecast``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from candlecast.autoencoder import build_autoencoder  # noqa: E402
from candlecast.classifier import build_classifier, forward  # noqa: E402
from candlecast.dataset import direction_labels  # noqa: E402
from candlecast.feature_select import fit_gbdt  # noqa: E402
from candlecast.indicators import default_grid, generate_features  # noqa: E402
from candlecast.nn import (Adam, LstmCell, Tensor, bce_loss, lstm_many_to_one,  # noqa: E402
                           mse_loss, parameter)
from candlecast.pipeline import DEFAULTS, PipelineConfig  # noqa: E402
from candlecast.synthetic import sine_market  # noqa: E402

OHLCV_CHANNELS = 5
STEPS = 50          # training steps per timed repeat
REPEATS = 7         # timed repeats per case
GBDT_ROUNDS = 25    # boosting rounds per timed fit


def autoencoder_case(channels: int):
    rng = np.random.default_rng(channels)
    model = build_autoencoder(channels, DEFAULTS["ae_code_price"], DEFAULTS["window"], seed=0)
    x = rng.standard_normal((DEFAULTS["ae_batch_size"], channels, 1, DEFAULTS["window"]))

    def loss():
        xb = Tensor(x)
        return mse_loss(model.reconstruct(xb), xb)

    return training_step(Adam(model.parameters(), lr=DEFAULTS["ae_learning_rate"]), loss)


def classifier_case():
    rng = np.random.default_rng(0)
    code = DEFAULTS["ae_code_price"]
    model = build_classifier(OHLCV_CHANNELS, code, code, DEFAULTS["window"], seed=0,
                             hidden_size=DEFAULTS["clf_hidden"],
                             branch_channels=DEFAULTS["clf_branch_channels"],
                             dropout_rate=DEFAULTS["clf_dropout"])
    batch = DEFAULTS["batch_size"]
    groups = [rng.standard_normal((batch, c, 1, DEFAULTS["window"]))
              for c in (OHLCV_CHANNELS, code, code)]
    labels = (rng.random(batch) < 0.5).astype(float)

    def loss():
        return bce_loss(forward(model, *groups, training=True, rng=rng), labels)

    return training_step(Adam(model.parameters(), lr=DEFAULTS["learning_rate"]), loss)


def lstm_case():
    """One forward and backward pass of the classifier's LSTM."""
    rng = np.random.default_rng(0)
    width = 3 * DEFAULTS["clf_branch_channels"]
    cell = LstmCell(width, DEFAULTS["clf_hidden"], rng)
    seq = parameter(rng.standard_normal((DEFAULTS["batch_size"], DEFAULTS["window"] // 3,
                                         width)))
    leaves = (seq, *cell.parameters().values())

    def step():
        for leaf in leaves:
            leaf.grad = None
        out = lstm_many_to_one(cell, seq)
        out.backward(np.ones_like(out.data))

    return step


def gbdt_case():
    """The pipeline's GBDT training matrix and labels on the default grid."""
    series = sine_market(seed=7)
    table = generate_features(series, default_grid())
    closes = series.close[len(series) - len(table):]
    train_rows = int(len(table) * DEFAULTS["train_fraction"])
    config = PipelineConfig({"gbdt_rounds": GBDT_ROUNDS}).gbdt_config()
    return table.values[:train_rows - 1], direction_labels(closes[:train_rows]), config


def training_step(opt: Adam, loss):
    """What ``fit`` does per mini-batch, as one call."""
    def step():
        opt.zero_grad()
        loss().backward()
        opt.step()

    return step


def measure(step, steps: int) -> tuple:
    """Seconds and minor page faults of ``steps`` calls of ``step``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(steps):
        step()
    elapsed = time.perf_counter() - t0
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main() -> int:
    cases = {"autoencoder, 8 channels": (lambda: autoencoder_case(8), "step"),
             "autoencoder, 17 channels": (lambda: autoencoder_case(17), "step"),
             "classifier, groups 5/4/4": (classifier_case, "step"),
             "lstm_many_to_one fwd+bwd": (lstm_case, "call")}
    print(f"numpy {np.__version__}, one BLAS thread, {REPEATS} x {STEPS} steps")
    for name, (build, unit) in cases.items():
        step = build()
        measure(step, STEPS)               # warm-up
        runs = [measure(step, STEPS) for _ in range(REPEATS)]
        us = statistics.median(seconds for seconds, _ in runs) / STEPS * 1e6
        faults = min(runs)[1] / STEPS
        print(f"{name:<26} {us:9.1f} us/{unit}  {faults:8.1f} minor faults/{unit}")
    X, y, config = gbdt_case()
    fit_gbdt(X, y, config)                 # warm-up
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fit_gbdt(X, y, config)
        runs.append(time.perf_counter() - t0)
    ms = statistics.median(runs) / GBDT_ROUNDS * 1e3
    name = f"gbdt, {X.shape[0]} x {X.shape[1]}"
    print(f"{name:<26} {ms:9.2f} ms/round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
