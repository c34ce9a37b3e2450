"""Time candlecast's ``nn`` kernels at the shapes a finished run produced.

    python3 perfbench/kernels.py OUT.json PREPARE.json -- <candlecast key=value ...>

Channel counts come from the run's ``prepare.json`` and batch sizes, window
and classifier widths from the run's configuration, so the shapes follow
whatever the pipeline actually built.  Each kernel is repeated and the
median per call is reported in microseconds.  FLOPs and bytes of the AE
convolution are computed from array sizes, not measured.
"""
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from candlecast.classifier import build_classifier  # noqa: E402
from candlecast.nn import (Adam, ConvSpec, LstmCell, Tensor, conv1d_forward,  # noqa: E402
                           conv1d_out_len, lstm_many_to_one, maxpool1d,
                           parameter, upsample_nearest)
from candlecast.pipeline import build_config  # noqa: E402

MIN_REPS = 15
MIN_SECONDS = 0.12


def _median_us(step) -> tuple:
    """Run ``step()`` (which returns its own (fwd, bwd) seconds) until both
    the repetition and time floors are met; medians in microseconds."""
    fwd, bwd = [], []
    start = time.perf_counter()
    while len(fwd) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        f, b = step()
        fwd.append(f)
        bwd.append(b)
    return statistics.median(fwd) * 1e6, statistics.median(bwd) * 1e6


def _fwd_bwd(forward, leaves):
    """Time one forward and one backward pass with an all-ones upstream grad."""
    for leaf in leaves:
        leaf.grad = None
    t0 = time.perf_counter()
    out = forward()
    t1 = time.perf_counter()
    out.backward(np.ones_like(out.data))
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def conv_case(rng, batch, c_in, c_out, length):
    spec = ConvSpec(c_in, c_out, 3, 1, 1)
    x = parameter(rng.standard_normal((batch, c_in, length)), name="x")
    w = parameter(rng.standard_normal((c_out, c_in, 3)) * 0.1, name="w")
    b = parameter(np.zeros(c_out), name="b")
    fwd, bwd = _median_us(lambda: _fwd_bwd(lambda: conv1d_forward(x, spec, w, b),
                                           (x, w, b)))
    l_out = conv1d_out_len(spec, length)
    flops = 2.0 * batch * l_out * c_out * c_in * spec.kernel_size
    nbytes = 8.0 * (x.data.size + w.data.size + b.data.size + batch * c_out * l_out)
    return fwd, bwd, flops, nbytes


def main() -> int:
    out_path, prepare_path, sep, *overrides = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: kernels.py OUT.json PREPARE.json -- <key=value ...>")
    config = build_config(None, overrides)
    info = json.loads(Path(prepare_path).read_text())
    rng = np.random.default_rng(0)
    window = config.window
    ae_batch, clf_batch = config.ae_batch_size, config.batch_size

    # the AE with the most input channels, first encoder convolution
    ae = max(info["ae"].values(), key=lambda a: a["in_channels"])
    c_in, code = ae["in_channels"], ae["code_channels"]
    mid = math.ceil((c_in + code) / 2)
    metrics = {}
    fwd, bwd, flops, nbytes = conv_case(rng, ae_batch, c_in, mid, window)
    metrics.update({"nn.conv1d_fwd_us.ae": fwd, "nn.conv1d_bwd_us.ae": bwd,
                    "nn.conv1d_flops.ae": flops, "nn.conv1d_bytes.ae": nbytes})

    # the classifier's raw-candle branch, first convolution after the 3-pool
    seq_len = window // 3
    fwd, bwd, _, _ = conv_case(rng, clf_batch, info["groups"]["ohlcv"],
                               config.clf_branch_channels, seq_len)
    metrics.update({"nn.conv1d_fwd_us.clf": fwd, "nn.conv1d_bwd_us.clf": bwd})

    act = parameter(rng.standard_normal((ae_batch, mid, window)), name="act")
    fwd, bwd = _median_us(lambda: _fwd_bwd(lambda: maxpool1d(act, 2, 2), (act,)))
    metrics["nn.maxpool1d_us"] = fwd + bwd

    half = parameter(rng.standard_normal((ae_batch, mid, window // 2)), name="half")
    fwd, bwd = _median_us(lambda: _fwd_bwd(lambda: upsample_nearest(half, 2), (half,)))
    metrics["nn.upsample_us"] = fwd + bwd

    width = 3 * config.clf_branch_channels
    cell = LstmCell(width, config.clf_hidden, rng)
    seq = parameter(rng.standard_normal((clf_batch, seq_len, width)), name="seq")
    leaves = (seq, *cell.parameters().values())
    fwd, bwd = _median_us(lambda: _fwd_bwd(lambda: lstm_many_to_one(cell, seq), leaves))
    metrics["nn.lstm_fwd_bwd_us"] = fwd + bwd

    model = build_classifier(info["groups"]["ohlcv"], info["ae"]["price"]["code_channels"],
                             info["ae"]["non_price"]["code_channels"], window,
                             seed=0, hidden_size=config.clf_hidden,
                             branch_channels=config.clf_branch_channels)
    params = list(model.parameters().values())
    for p in params:
        p.grad = rng.standard_normal(p.data.shape) * 1e-3
    opt = Adam(params, lr=config.learning_rate)

    def adam_case():
        t0 = time.perf_counter()
        opt.step()
        return time.perf_counter() - t0, 0.0

    metrics["nn.adam_step_us"] = _median_us(adam_case)[0]
    Path(out_path).write_text(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
