"""Run-directory file formats: golden bytes of the text artifacts, atomic
replacement, typed errors on malformed files, and the rule that only
``candlecast.framing`` writes artifact bytes."""
from __future__ import annotations

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

import candlecast
from candlecast.dataset import load_windows
from candlecast.errors import ArtifactError, DataError
from candlecast.feature_select import (GbdtConfig, GbdtModel, load_importance_csv,
                                       save_importance_csv)
from candlecast.framing import write_framed, write_json, write_rows
from candlecast.indicators import FeatureClass, FeatureTable
from candlecast.nn import load_checkpoint
from candlecast.strategy import (BacktestReport, Trade, read_ledger_csv,
                                 write_ledger_csv, write_report_csv,
                                 write_report_json)
from candlecast.trainer import read_history_csv, write_history_csv

_HISTORY = [(0.6931471805599453, 0.30102999566398114, 0.5000000000000001),
            (0.1, 0.043429448190325175, 0.9048374180359595)]
_LEDGER = [Trade(3, 0.75, "Long", 1000.0, 100.0, 103.0, 27.94, 1027.94),
           Trade(4, 0.1, "Short", 1027.94, 103.0, 99.0, 37.87, 1065.81)]
_EXTRA = {"sigma_star": 0.85, "verdict": "well_trained", "test_instances": 3}


def _report() -> BacktestReport:
    return BacktestReport(theta=1 / 3, fee_rate=0.001, initial_margin=1000.0,
                          profit_saving=True, trades=2, tp=2, fp=0, tn=0, fn=0,
                          accuracy=1.0, precision=1.0, recall=1.0, f1=1.0,
                          pnl_compounding=6.581, pnl_profit_saving=6.581,
                          final_compounding=1065.81, final_profit_saving=1065.81,
                          ledger=_LEDGER)


def _table() -> FeatureTable:
    return FeatureTable([3600, 7200], ["close", "rsi_7"],
                        np.array([[100.5, 1 / 3], [101.0, 70.0]]),
                        [FeatureClass.OHLCV, FeatureClass.NON_PRICE_LIKE])


# -- golden bytes: the text artifacts keep the exact bytes of earlier writers --

def test_history_golden_bytes(tmp_path):
    path = tmp_path / "loss_history.csv"
    write_history_csv(_HISTORY, path)
    assert path.read_bytes() == (
        b"epoch,loss_e,loss_10,sigma_star\n"
        b"1,0.6931471805599453,0.30102999566398114,0.5000000000000001\n"
        b"2,0.1,0.043429448190325175,0.9048374180359595\n")
    assert read_history_csv(path) == _HISTORY


def test_ledger_golden_bytes(tmp_path):
    path = tmp_path / "ledger.csv"
    write_ledger_csv(_LEDGER, path)
    assert path.read_bytes() == (
        b"t,sigma,direction,margin,entry,exit,pnl,account\n"
        b"3,0.75,Long,1000.0,100.0,103.0,27.94,1027.94\n"
        b"4,0.1,Short,1027.94,103.0,99.0,37.87,1065.81\n")
    assert read_ledger_csv(path) == _LEDGER


def test_report_golden_bytes(tmp_path):
    json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    write_report_json(_report(), json_path, extra=_EXTRA)
    write_report_csv(_report(), csv_path, extra=_EXTRA)
    assert json_path.read_bytes() == (
        b'{\n  "accuracy": 1.0,\n  "f1": 1.0,\n  "fee_rate": 0.001,\n'
        b'  "final_compounding": 1065.81,\n  "final_profit_saving": 1065.81,\n'
        b'  "fn": 0,\n  "fp": 0,\n  "initial_margin": 1000.0,\n'
        b'  "pnl_compounding": 6.581,\n  "pnl_profit_saving": 6.581,\n'
        b'  "precision": 1.0,\n  "profit_saving": true,\n  "recall": 1.0,\n'
        b'  "sigma_star": 0.85,\n  "test_instances": 3,\n'
        b'  "theta": 0.3333333333333333,\n  "tn": 0,\n  "tp": 2,\n'
        b'  "trades": 2,\n  "verdict": "well_trained"\n}\n')
    assert csv_path.read_bytes() == (
        b"metric,value\ntheta,0.3333333333333333\nfee_rate,0.001\n"
        b"initial_margin,1000.0\nprofit_saving,True\ntrades,2\ntp,2\nfp,0\n"
        b"tn,0\nfn,0\naccuracy,1.0\nprecision,1.0\nrecall,1.0\nf1,1.0\n"
        b"pnl_compounding,6.581\npnl_profit_saving,6.581\n"
        b"final_compounding,1065.81\nfinal_profit_saving,1065.81\n"
        b"sigma_star,0.85\ntest_instances,3\nverdict,well_trained\n")


def test_importance_golden_bytes(tmp_path):
    model = GbdtModel(GbdtConfig(), ["rsi_7", "sma_7", "atr_7"],
                      importance=np.array([0.25, 0.5, 0.25]))
    path = tmp_path / "importance.csv"
    save_importance_csv(path, model)
    assert path.read_bytes() == (b"feature,importance\nsma_7,0.5\natr_7,0.25\n"
                                 b"rsi_7,0.25\n")
    assert load_importance_csv(path) == {"sma_7": 0.5, "atr_7": 0.25, "rsi_7": 0.25}


def test_feature_table_golden_bytes(tmp_path):
    path = tmp_path / "features.csv"
    _table().to_csv(path)
    assert path.read_bytes() == (b"timestamp,close,rsi_7\n"
                                 b"3600,100.5,0.3333333333333333\n"
                                 b"7200,101.0,70.0\n")
    assert (tmp_path / "features.csv.classes").read_bytes() == (
        b"close=ohlcv\nrsi_7=non_price_like\n")
    back = FeatureTable.from_csv(path)
    assert back.names == ["close", "rsi_7"]
    assert back.classes == [FeatureClass.OHLCV, FeatureClass.NON_PRICE_LIKE]
    np.testing.assert_array_equal(back.values, _table().values)
    np.testing.assert_array_equal(back.index, [3600, 7200])


# -- malformed text tables raise DataError --

@pytest.mark.parametrize("reader, text", [
    (read_history_csv, "epoch,loss_e,loss_10,sigma_star\n1,0.5,x,0.3\n"),
    (read_history_csv, "epoch,loss_e,loss_10,sigma_star\n1,0.5,0.2\n"),
    (load_importance_csv, "feature,importance\nrsi_7,high\n"),
    (load_importance_csv, "feature,importance\nrsi_7,0.5,1\n"),
    (read_ledger_csv, "t,sigma,direction,margin,entry,exit,pnl,account\n"
                      "x,0.75,Long,1000.0,100.0,103.0,27.94,1027.94\n"),
    (read_ledger_csv, "t,sigma,direction,margin,entry,exit,pnl,account\n"
                      "3,0.75,up,1000.0,100.0,103.0,27.94,1027.94\n"),
])
def test_text_readers_raise_data_error(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="line 2"):
        reader(path)


def test_feature_table_rejects_bad_files(tmp_path):
    path = tmp_path / "features.csv"
    _table().to_csv(path)
    classes = tmp_path / "features.csv.classes"
    classes.write_text("close=ohlcv\n")
    with pytest.raises(DataError):
        FeatureTable.from_csv(path)
    classes.write_text("close=ohlcv\nrsi_7=bogus\n")
    with pytest.raises(ArtifactError, match="bogus"):
        FeatureTable.from_csv(path)
    classes.write_text("close=ohlcv\nrsi_7=non_price_like\n")
    path.write_text("timestamp,close,rsi_7\n3600,100.5\n")
    with pytest.raises(DataError, match="line 2"):
        FeatureTable.from_csv(path)


# -- framed headers: missing or malformed fields are artifact errors --

def _windows_blob(header: bytes) -> bytes:
    # one instance of one channel over a width-2 window
    return (b"candlecast-windows v1\n" + header + b"\n"
            + struct.pack("<5d", 1.0, 2.0, 1.0, 100.0, 101.0)
            + struct.pack("<2q", 1, 3600))


def test_window_header_errors(tmp_path):
    path = tmp_path / "dataset.bin"
    fields = (b"channels=1\nwindow=2\nstride=1\nn_train=0\nnormalized=0\n"
              b"channel:close=ohlcv\n")
    path.write_bytes(_windows_blob(fields))
    with pytest.raises(ArtifactError, match="n="):
        load_windows(path)
    path.write_bytes(_windows_blob(b"n=1\n" + fields.replace(b"ohlcv", b"bogus")))
    with pytest.raises(ArtifactError, match="bogus"):
        load_windows(path)
    path.write_bytes(_windows_blob(b"n=1\n" + fields.replace(b"window=2", b"window=two")))
    with pytest.raises(ArtifactError, match="window"):
        load_windows(path)
    path.write_bytes(_windows_blob(b"n=1\n" + fields))
    assert load_windows(path).X.shape == (1, 1, 1, 2)


def test_checkpoint_header_errors(tmp_path):
    path = tmp_path / "x.ckpt"
    payload = struct.pack("<2d", 1.0, 2.0)
    path.write_bytes(b"candlecast-checkpoint v1\ncount=x\nw=2\n\n" + payload)
    with pytest.raises(ArtifactError, match="count"):
        load_checkpoint(path)
    path.write_bytes(b"candlecast-checkpoint v1\ncount=1\nw=2,y\n\n" + payload)
    with pytest.raises(ArtifactError, match="w="):
        load_checkpoint(path)
    path.write_bytes(b"candlecast-checkpoint v1\ncount=1\nw=2\n\n" + payload)
    np.testing.assert_array_equal(load_checkpoint(path)["w"], [1.0, 2.0])


# -- atomic replacement --

class _Boom(Exception):
    pass


class _Exploding:
    def __str__(self):
        raise _Boom


def test_failed_writes_leave_the_old_file(tmp_path):
    path = tmp_path / "artifact"
    writes = [
        lambda: write_rows(path, "a,b", [(1, 2.0), (2, _Exploding())]),
        lambda: write_json(path, {"a": object()}),
        lambda: write_framed(path, "magic", ["n=1"],
                             [(np.ones(2), "<f8"), ([object()], "<f8")]),
    ]
    for write in writes:
        path.write_bytes(b"previous")
        with pytest.raises((_Boom, TypeError)):
            write()
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_writes_replace_and_leave_no_temp_file(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_bytes(b"previous")
    write_rows(path, "a,b", [(1, 0.5)])
    assert path.read_bytes() == b"a,b\n1,0.5\n"
    write_json(tmp_path / "x.json", {"b": 1, "a": [1.5]})
    assert (tmp_path / "x.json").read_bytes() == b'{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "x.json"]


# -- only framing.py writes artifact bytes --

_PACKAGE = Path(candlecast.__file__).resolve().parent
_WRITE_METHODS = {"write_text", "write_bytes"}


def _open_mode(call: ast.Call):
    """The mode argument of an ``open`` call, "r" when absent, None when it
    is not a literal."""
    for kw in call.keywords:
        if kw.arg == "mode":
            node = kw.value
            break
    else:
        # builtin open(path, mode); Path.open(mode)
        pos = 1 if isinstance(call.func, ast.Name) else 0
        if len(call.args) <= pos:
            return "r"
        node = call.args[pos]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _write_sites(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            mode = _open_mode(node)
            if mode is None or set(mode) & set("wax+"):
                found.append((node.lineno, f"open(mode={mode!r})"))
        elif name in _WRITE_METHODS or name == "fdopen":
            found.append((node.lineno, name))
        elif (name in ("dumps", "dump") and isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name) and func.value.id == "json"):
            found.append((node.lineno, f"json.{name}"))
    return found


def test_only_framing_writes_files():
    offenders = []
    modules = sorted(_PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    for module in modules:
        if module.name == "framing.py" and module.parent == _PACKAGE:
            continue
        for lineno, what in _write_sites(ast.parse(module.read_text())):
            offenders.append(f"{module.relative_to(_PACKAGE)}:{lineno} {what}")
    assert offenders == []


def test_write_guard_sees_writes():
    tree = ast.parse("open(p, 'w')\nopen(p)\nopen(p, mode='rb')\nPath(p).open('a')\n"
                     "p.write_text('x')\njson.dumps({})\nopen(p, m)\n")
    assert [line for line, _ in _write_sites(tree)] == [1, 4, 5, 6, 7]
