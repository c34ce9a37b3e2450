"""The benchmark in ``perfbench/`` wraps names bound in ``candlecast.pipeline``
and ``candlecast.cli`` and imports kernels from ``candlecast.nn``; a refactor
that drops or reshapes one of them breaks traced benchmark runs."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import candlecast.cli as cli
import candlecast.pipeline as pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_are_bound():
    spans = _spans()
    for _, attr in spans.LAYER_CALLS:
        assert callable(getattr(pipeline, attr, None)), f"candlecast.pipeline.{attr}"
    for attr in spans.CLI_NAMES:
        assert callable(getattr(cli, attr, None)), f"candlecast.cli.{attr}"


def test_span_counters_find_their_arguments():
    # spans.py reads save_windows' args[1] and denoise_features' args[0]
    # and its ``columns`` argument, positionally or by keyword
    save = list(inspect.signature(pipeline.save_windows).parameters)
    assert save[:2] == ["ds", "path"]
    denoise = list(inspect.signature(pipeline.denoise_features).parameters)
    assert denoise[0] == "table" and denoise[2] == "columns"


def test_kernel_imports_resolve():
    tree = ast.parse((PERFBENCH / "kernels.py").read_text())
    found = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("candlecast"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                found += 1
    assert found > 0


def test_prepare_json_holds_what_kernels_read(tmp_path):
    # kernels.py sizes its cases from prepare.json: groups.ohlcv, and
    # in_channels and code_channels of ae.price, ae.non_price and every ae
    config = pipeline.build_config(None, (
        "synthetic_n=450", "indicator_windows=7,14", "top_k=26", "gbdt_rounds=8",
        "window=12", "ae_code_price=2", "ae_code_non_price=2", "ae_epochs=1",
        f"out_dir={tmp_path}"))
    pipeline.stage_ingest(config)
    info = json.loads(pipeline.stage_prepare(config).prepare_json.read_text())
    assert info["groups"]["ohlcv"] == 5
    assert sorted(info["ae"]) == ["non_price", "price"]
    for group, ae in info["ae"].items():
        assert ae["in_channels"] == info["groups"][group], group
        assert ae["code_channels"] == 2, group
