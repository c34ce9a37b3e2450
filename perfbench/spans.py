"""Span recording around candlecast's public layer calls, and self-time math.

A span is ``[name, start, end, parent]``: monotonic seconds (CLOCK_MONOTONIC,
comparable across processes on Linux) and the index of the enclosing span,
or -1.  Spans live in memory and are written out when the process ends.

``instrument`` wraps, from outside the program, every stage entry point and
every layer function that ``candlecast.pipeline`` calls, by rebinding the
names in the modules that call them.  The program itself is not modified.
"""
from __future__ import annotations

import functools
import os
import time

# (span name, name bound in candlecast.pipeline)
LAYER_CALLS = (
    ("pipeline.ingest", "stage_ingest"),
    ("pipeline.prepare", "stage_prepare"),
    ("pipeline.train", "stage_train"),
    ("pipeline.backtest", "stage_backtest"),
    ("pipeline.report", "report_text"),
    ("market_data.load_csv", "load_csv"),
    ("indicators.generate_features", "generate_features"),
    ("denoise.denoise_features", "denoise_features"),
    ("feature_select.fit_gbdt", "fit_gbdt"),
    ("dataset.make_windows", "make_windows"),
    ("dataset.save_windows", "save_windows"),
    ("dataset.load_windows", "load_windows"),
    ("autoencoder.train", "train_autoencoder"),
    ("autoencoder.encode", "encode"),
    ("trainer.train_classifier", "train_classifier"),
    ("classifier.predict_batch", "predict_batch"),
    ("strategy.run_backtest", "run_backtest"),
)

# names that candlecast.cli imported from the pipeline and calls directly
CLI_NAMES = ("stage_ingest", "stage_prepare", "stage_train", "stage_backtest",
             "report_text")


def _improving_epochs(history) -> int:
    """Epochs whose loss beats every earlier epoch's (the first counts)."""
    best, count = float("inf"), 0
    for loss in history:
        if loss < best:
            best, count = loss, count + 1
    return count


def _count(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_call(name, counts, args, kwargs, result) -> None:
    if name == "market_data.load_csv":
        _count(counts, "market_data.rows", len(result))
    elif name == "indicators.generate_features":
        _count(counts, "indicators.columns", result.n_columns)
    elif name == "denoise.denoise_features":
        table = args[0]
        columns = kwargs.get("columns", args[2] if len(args) > 2 else None)
        if columns is None:
            columns = [n for n in table.names if n != "volume"]
        _count(counts, "denoise.cells", len(table) * len(columns))
    elif name == "feature_select.fit_gbdt":
        _count(counts, "feature_select.trees", len(result.trees))
    elif name == "dataset.save_windows":
        _count(counts, "dataset.bytes", os.path.getsize(args[1]))
    elif name == "autoencoder.train":
        _count(counts, "autoencoder.epochs", len(result))
        _count(counts, "autoencoder.improving_epochs", _improving_epochs(result))
    elif name == "trainer.train_classifier":
        _count(counts, "trainer.epochs", result.epochs_run)
    elif name == "strategy.run_backtest":
        _count(counts, "strategy.trades", result.trades)


class Recorder:
    """In-memory span list with a stack for parent links, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.monotonic()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            _count_call(name, self.counts, args, kwargs, result)
            return result
        return wrapper


def instrument(recorder: Recorder, pipeline, cli) -> None:
    """Rebind the pipeline's layer calls (and the CLI's stage calls) to
    span-recording wrappers."""
    wrapped = {}
    for span_name, attr in LAYER_CALLS:
        wrapped[attr] = recorder.wrap(span_name, getattr(pipeline, attr))
        setattr(pipeline, attr, wrapped[attr])
    for attr in CLI_NAMES:
        setattr(cli, attr, wrapped[attr])


def self_times(spans, window) -> dict:
    """Self time per span name inside ``window`` = (lo, hi).

    Each span's duration is clipped to the window; its self time is that
    minus the clipped durations of its direct children.  Over a properly
    nested span set the self times partition the covered part of the window.
    """
    lo, hi = window
    clipped = [max(0.0, min(end, hi) - max(start, lo)) for _, start, end, _ in spans]
    own = list(clipped)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= clipped[i]
    out: dict = {}
    for (name, _, _, _), value in zip(spans, own):
        out[name] = out.get(name, 0.0) + value
    return out


def totals(spans) -> dict:
    """Summed duration per span name."""
    out: dict = {}
    for name, start, end, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out
