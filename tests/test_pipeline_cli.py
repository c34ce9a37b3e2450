"""Configuration layering, run artifacts, reproducibility, and exit codes."""
from __future__ import annotations

import inspect
import json
import warnings

import numpy as np
import pytest

from candlecast import pipeline
from candlecast.autoencoder import train_autoencoder
from candlecast.classifier import build_classifier, predict_batch
from candlecast.cli import main
from candlecast.denoise import WaveletConfig
from candlecast.errors import ArtifactError, ConfigError, TrainingDiverged
from candlecast.feature_select import GbdtConfig
from candlecast.indicators import default_grid
from candlecast.market_data import CandleSeries, load_csv, save_csv
from candlecast.pipeline import (DEFAULTS, Manifest, PipelineConfig,
                                 build_config, load_config_file, parse_number,
                                 parse_overrides, run_all, run_paths,
                                 seed_streams, stage_backtest, stage_ingest,
                                 stage_prepare, stage_train)
from candlecast.strategy import StrategyConfig, read_ledger_csv
from candlecast.synthetic import sine_market
from candlecast.trainer import TrainConfig

from conftest import make_series

# small but end-to-end viable settings; windows (7, 14) keep both feature
# classes populated and top_k=26 retains every generated column
_FAST = ("synthetic_n=450", "indicator_windows=7,14", "top_k=26",
         "gbdt_rounds=8", "window=12", "ae_code_price=2",
         "ae_code_non_price=2", "ae_epochs=3", "ae_batch_size=96",
         "max_epochs=3", "batch_size=96", "theta_list=1/3,1",
         "clf_hidden=6", "clf_branch_channels=3", "seed=11")


# each of these once got past parsing and failed at some later stage, or
# was accepted as is
_MID_RUN_FAILURES = (("ae_batch_size", 0), ("seed", -1), ("clf_hidden", 0),
                     ("synthetic_n", 1), ("clf_branch_channels", 0),
                     ("synthetic_period", 0.0), ("synthetic_base_price", -5.0),
                     ("synthetic_noise", -0.01), ("window", 10), ("window", 15),
                     ("ae_learning_rate", 0.0), ("ae_learning_rate", -1e-3),
                     ("clf_dropout", 1.0), ("clf_dropout", -0.1),
                     ("synthetic_amplitude", 1.0), ("synthetic_amplitude", -1.0),
                     ("synthetic_amplitude", 2.0))


def _fast_config(tmp_path, *extra):
    return build_config(None, _FAST + tuple(extra) + (f"out_dir={tmp_path}",))


def test_parse_number():
    assert parse_number("1/3") == 1.0 / 3.0
    assert parse_number("0.25") == 0.25
    assert parse_number("2") == 2.0
    assert parse_number(" -1e-4 ") == -1e-4
    for bad in ("1/0", "abc", "inf", "1/x"):
        with pytest.raises(ConfigError):
            parse_number(bad)


def test_override_parsing_and_types():
    values = parse_overrides(["theta_list=1/3,1/4,1", "fill_gaps=true",
                              "window=36", "fee_rate=0.002",
                              "indicator_windows=7,21", "data=prices.csv"])
    assert values["theta_list"] == (1.0 / 3.0, 0.25, 1.0)
    assert values["fill_gaps"] is True
    assert values["window"] == 36
    assert values["indicator_windows"] == (7, 21)
    assert values["data"] == "prices.csv"
    with pytest.raises(ConfigError, match="unknown"):
        parse_overrides(["no_such_key=1"])
    with pytest.raises(ConfigError, match="key=value"):
        parse_overrides(["windowless"])
    with pytest.raises(ConfigError, match="integer"):
        parse_overrides(["window=12.5"])
    with pytest.raises(ConfigError, match="true or false"):
        parse_overrides(["fill_gaps=yes"])


def test_config_validation_spans_subconfigs():
    with pytest.raises(ConfigError):
        PipelineConfig({"train_fraction": 1.2})
    with pytest.raises(ConfigError):
        PipelineConfig({"zeta": 2.0})
    with pytest.raises(ConfigError):
        PipelineConfig({"wavelet_family": "nope"})
    with pytest.raises(ConfigError):
        PipelineConfig({"theta_list": ()})
    with pytest.raises(ConfigError):
        PipelineConfig({"fee_rate": -0.1})
    with pytest.raises(ConfigError):
        PipelineConfig({"top_k": 0})
    # values that used to fail only mid-run, or not at all
    for key, value in _MID_RUN_FAILURES:
        with pytest.raises(ConfigError, match=key):
            PipelineConfig({key: value})
    for windows in ((7, 1), (7, 7), ()):
        with pytest.raises(ConfigError, match="indicator_windows"):
            PipelineConfig({"indicator_windows": windows})
    for window in (6, 12, 24, 36):
        assert PipelineConfig({"window": window}).window == window


def test_canonical_identity():
    a = PipelineConfig({"seed": 3, "window": 24})
    b = PipelineConfig({"window": 24, "seed": 3})
    assert a.canonical() == b.canonical()
    assert a.run_id == b.run_id
    assert len(a.run_id) == 12
    assert int(a.run_id, 16) >= 0
    assert a.run_id != PipelineConfig({"seed": 4, "window": 24}).run_id
    # where the artifacts land is not part of the run identity
    c = PipelineConfig({"seed": 3, "window": 24, "out_dir": "elsewhere"})
    assert c.run_id == a.run_id
    assert "out_dir" not in a.canonical()
    for key in DEFAULTS:
        if key != "out_dir":
            assert f"{key}=" in a.canonical()


# DEFAULTS entries that repeat the default of the function or config class
# that owns the setting: (key, owner, owner's parameter)
_OWNED_DEFAULTS = (
    ("synthetic_n", sine_market, "n"),
    ("timeframe", sine_market, "timeframe"),
    ("synthetic_period", sine_market, "period"),
    ("synthetic_amplitude", sine_market, "amplitude"),
    ("synthetic_noise", sine_market, "noise"),
    ("synthetic_base_price", sine_market, "base_price"),
    ("symbol", sine_market, "symbol"),
    ("fill_gaps", load_csv, "fill_gaps"),
    ("indicator_windows", default_grid, "windows"),
    ("wavelet_family", WaveletConfig, "family"),
    ("wavelet_levels", WaveletConfig, "levels"),
    ("wavelet_mode", WaveletConfig, "mode"),
    ("gbdt_rounds", GbdtConfig, "rounds"),
    ("gbdt_max_depth", GbdtConfig, "max_depth"),
    ("gbdt_learning_rate", GbdtConfig, "learning_rate"),
    ("gbdt_min_samples_leaf", GbdtConfig, "min_samples_leaf"),
    ("top_k", GbdtConfig, "top_k"),
    ("ae_epochs", train_autoencoder, "epochs"),
    ("ae_learning_rate", train_autoencoder, "lr"),
    ("ae_batch_size", train_autoencoder, "batch_size"),
    ("clf_hidden", build_classifier, "hidden_size"),
    ("clf_branch_channels", build_classifier, "branch_channels"),
    ("clf_dropout", build_classifier, "dropout_rate"),
    ("zeta", TrainConfig, "zeta"),
    ("patience", TrainConfig, "patience"),
    ("slope_threshold", TrainConfig, "slope_threshold"),
    ("max_epochs", TrainConfig, "max_epochs"),
    ("learning_rate", TrainConfig, "learning_rate"),
    ("batch_size", TrainConfig, "batch_size"),
    ("fee_rate", StrategyConfig, "fee_rate"),
    ("profit_saving", StrategyConfig, "profit_saving"),
    ("initial_margin", StrategyConfig, "initial_margin"),
)


def _typed(value):
    """A value with its type, element by element for tuples."""
    if isinstance(value, tuple):
        return tuple, tuple(_typed(v) for v in value)
    return type(value), value


@pytest.mark.parametrize("key,owner,param", _OWNED_DEFAULTS,
                         ids=[key for key, _, _ in _OWNED_DEFAULTS])
def test_defaults_match_their_owners(key, owner, param):
    owned = inspect.signature(owner).parameters[param].default
    assert _typed(DEFAULTS[key]) == _typed(owned)


def test_config_file_layering(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\n"
                    "window = 36   # trailing comment\n"
                    "theta_list = 1/3, 1\n"
                    "\n"
                    "fee_rate=0.002\n")
    values = load_config_file(path)
    assert values == {"window": 36, "theta_list": (1.0 / 3.0, 1.0),
                      "fee_rate": 0.002}
    config = build_config(path, ["window=24"])
    assert config.window == 24          # override beats file
    assert config.fee_rate == 0.002     # file beats default
    assert config.stride == DEFAULTS["stride"]
    bad = tmp_path / "bad.cfg"
    bad.write_text("window: 36\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config_file(bad)
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(missing)


def test_bad_value_names_its_source(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("# header\nwindow = abc\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg line 2: window: expected an integer"):
        load_config_file(bad)
    with pytest.raises(ConfigError, match="^override: cannot parse number 'abc'"):
        build_config(None, ["fee_rate=abc"])
    out_dir = f"out_dir={tmp_path / 'out'}"
    assert main(["report", "--config", str(bad), out_dir]) == 2
    assert capsys.readouterr().err == (f"configuration error: {bad} line 2: window: "
                                       "expected an integer, got 'abc'\n")
    assert main(["report", "window=abc", out_dir]) == 2
    assert capsys.readouterr().err == ("configuration error: override: window: "
                                       "expected an integer, got 'abc'\n")


def test_seed_streams_are_stable_and_distinct():
    a = seed_streams(7)
    b = seed_streams(7)
    c = seed_streams(8)
    assert list(a) == ["synthetic", "ae_price", "ae_non_price", "classifier",
                       "trainer"]
    for name in a:
        assert a[name].generate_state(2).tolist() == b[name].generate_state(2).tolist()
        assert a[name].generate_state(2).tolist() != c[name].generate_state(2).tolist()
    states = [tuple(s.generate_state(2).tolist()) for s in a.values()]
    assert len(set(states)) == len(states)


def test_run_all_artifacts_and_reports(tmp_path):
    config = _fast_config(tmp_path / "out")
    paths, train_report, reports = run_all(config)
    expected = ["manifest.json", "market.csv", "importance.csv", "dataset.bin",
                "ae_price.ckpt", "ae_non_price.ckpt", "prepare.json",
                "classifier.ckpt", "loss_history.csv", "train.json",
                "report_theta0.json", "report_theta0.csv", "ledger_theta0.csv",
                "report_theta1.json", "report_theta1.csv", "ledger_theta1.csv",
                "backtest.json"]
    for name in expected:
        assert (paths.root / name).exists(), name
    manifest = Manifest.load(paths, config)
    for name in expected:
        if name != "manifest.json":
            manifest.verify(paths.root / name)

    info = json.loads(paths.prepare_json.read_text())
    assert info["groups"]["ohlcv"] == 5
    assert info["groups"]["price"] >= 2 and info["groups"]["non_price"] >= 2
    assert info["n_train"] < info["instances"]
    assert info["ae"]["price"]["code_channels"] == 2

    verdict = json.loads(paths.train_json.read_text())
    assert verdict["status"] == train_report.status
    assert verdict["epochs_run"] == 3

    summary = json.loads(paths.backtest_json.read_text())
    assert [run["theta"] for run in summary["runs"]] == [1.0 / 3.0, 1.0]
    theta_one = json.loads(paths.report_json(1).read_text())
    assert theta_one["trades"] == theta_one["tp"] + theta_one["fp"] \
        + theta_one["tn"] + theta_one["fn"]
    assert theta_one["trades"] == info["instances"] - info["n_train"]
    assert 0.0 <= theta_one["accuracy"] <= 1.0
    assert theta_one["sigma_star"] == verdict["sigma_star"]
    assert reports[1].trades == theta_one["trades"]


def test_run_all_byte_reproducible(tmp_path):
    config_a = _fast_config(tmp_path / "a")
    config_b = _fast_config(tmp_path / "b")
    assert config_a.run_id == config_b.run_id
    paths_a, _, _ = run_all(config_a)
    paths_b, _, _ = run_all(config_b)
    names = sorted(p.name for p in paths_a.root.iterdir())
    assert names == sorted(p.name for p in paths_b.root.iterdir())
    for name in names:
        assert (paths_a.root / name).read_bytes() == \
            (paths_b.root / name).read_bytes(), name


def test_corrupted_artifact_is_refused(tmp_path):
    config = _fast_config(tmp_path / "out")
    stage_ingest(config)
    stage_prepare(config)
    paths = run_paths(config)
    blob = bytearray(paths.dataset.read_bytes())
    blob[-1] ^= 0xFF
    paths.dataset.write_bytes(bytes(blob))
    with pytest.raises(ArtifactError, match="refusing dataset.bin"):
        stage_train(config)


def test_stages_demand_their_inputs(tmp_path):
    config = _fast_config(tmp_path / "out")
    with pytest.raises(ArtifactError, match="manifest"):
        stage_prepare(config)
    stage_ingest(config)
    with pytest.raises(ArtifactError, match="producing stage"):
        stage_train(config)
    stage_prepare(config)
    with pytest.raises(ArtifactError, match="producing stage"):
        stage_backtest(config)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_stage_errors_carry_the_stage_name(tmp_path):
    # a huge learning rate blows the autoencoder up in its own sub-step
    config = _fast_config(tmp_path / "out", "ae_learning_rate=1e150")
    stage_ingest(config)
    with pytest.raises(TrainingDiverged, match=r"^\[prepare:autoencoders\] "):
        stage_prepare(config)


def test_global_mode_backtest_warns(tmp_path):
    config = _fast_config(tmp_path / "out", "wavelet_mode=global")
    stage_ingest(config)
    stage_prepare(config)
    stage_train(config)
    with pytest.warns(UserWarning, match="look-ahead"):
        stage_backtest(config)


def test_cli_round_trip(tmp_path, capsys):
    overrides = list(_FAST) + [f"out_dir={tmp_path / 'out'}"]
    code = main(["run-all", *overrides])
    captured = capsys.readouterr()
    assert code in (0, 4)
    assert "verdict" in captured.out
    verdict = json.loads((run_paths(build_config(None, overrides)).train_json)
                         .read_text())
    assert (code == 0) == (verdict["status"] == "well_trained")

    assert main(["report", *overrides]) == 0
    assert "theta" in capsys.readouterr().out

    # each theta row appears in the backtest listing
    assert main(["backtest", *overrides]) == 0
    out = capsys.readouterr().out
    assert out.count("theta=") == 2


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run-all", "bogus_key=1"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["ingest", "data=/no/such/file.csv",
                 f"out_dir={tmp_path / 'x'}"]) == 3
    assert "data error" in capsys.readouterr().err
    assert main(["train", *_FAST, f"out_dir={tmp_path / 'y'}"]) == 3
    capsys.readouterr()
    # every bad value is refused at parse time, before any stage runs
    for key, value in _MID_RUN_FAILURES:
        assert main(["run-all", *_FAST, f"{key}={value}",
                     f"out_dir={tmp_path / 'z'}"]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and key in err, err
        assert "Error" not in err
    assert not (tmp_path / "z").exists()
    # unreadable inputs: a directory or non-UTF-8 bytes as config, a non-UTF-8 CSV
    capsys.readouterr()
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"seed = 1 # \xe9\n")
    for config in (tmp_path, latin1):
        assert main(["run-all", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Error" not in err
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(b"timestamp,open,high,low,close,volume\n0,1,1,1,1,\xe9\n")
    assert main(["ingest", f"data={csv}", f"out_dir={tmp_path / 'w'}"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "latin1.csv" in err and "Error" not in err


def test_cli_names_synthetic_noise_that_breaks_the_price_floor(tmp_path, capsys):
    # no parse-time bound on synthetic_noise is exact: whether a close falls
    # below the price floor depends on the seed's draws
    assert main(["ingest", "synthetic_noise=0.5", f"out_dir={tmp_path}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "noise 0.5" in err, err
    assert "low above" not in err


def test_cli_names_synthetic_noise_that_overflows_the_prices(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for extra, reason in ((("synthetic_n=2", "seed=3"), "beyond the float range"),
                              ((), "below the 1e-06 price floor")):
            assert main(["ingest", "synthetic_noise=1e307", *extra,
                         f"out_dir={tmp_path}"]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error: [ingest] synthetic noise 1e+307 ")
            assert reason in err and "Warning" not in err, err
    assert not caught


def test_cli_unusable_out_dir_is_a_data_error(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(["ingest", f"out_dir={not_a_dir}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: [ingest] cannot create the run directory "
                          f"{not_a_dir}/"), err
    assert "Error" not in err


def test_backtest_stride_is_refused_before_any_work(tmp_path, capsys):
    # run-all refuses stride > 1 before ingest: no run directory at all
    assert main(["run-all", *_FAST, "stride=2", f"out_dir={tmp_path / 'all'}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: stride must be 1") and "Error" not in err
    assert not (tmp_path / "all").exists()
    # prepare and train still take stride > 1; backtest refuses it up front
    # and leaves the run directory as it was
    overrides = [*_FAST, "stride=2", f"out_dir={tmp_path / 'out'}"]
    for command in ("ingest", "prepare", "train"):
        assert main([command, *overrides]) in (0, 4), command
    root = run_paths(build_config(None, overrides)).root
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    capsys.readouterr()
    assert main(["backtest", *overrides]) == 2
    assert capsys.readouterr().err.startswith("configuration error: stride must be 1")
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_cli_autoencoder_divergence_exits_5(tmp_path, capsys):
    overrides = list(_FAST) + ["ae_learning_rate=1e150", f"out_dir={tmp_path / 'out'}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run-all", *overrides]) == 5
    err = capsys.readouterr().err
    assert "training diverged: [prepare:autoencoders] non-finite loss in epoch 1\n" in err
    # the overflow before it surfaces only as that line, not as numpy warnings
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # the failed prepare removed what it wrote; the manifest lists market.csv only
    root = run_paths(build_config(None, overrides)).root
    assert sorted(p.name for p in root.iterdir()) == ["manifest.json", "market.csv"]


@pytest.mark.parametrize("key, message", [
    ("ae_learning_rate", "[prepare:autoencoders] numeric blow-up in epoch 1: "
                         "non-finite values entering maxpool1d"),
    ("learning_rate", "[train] numeric blow-up in epoch 1: "
                      "non-finite values entering lstm_many_to_one")],
    ids=["autoencoder", "classifier"])
def test_cli_blow_up_names_the_layer(tmp_path, capsys, key, message):
    # the benchmark's sine_reference settings; a first Adam step of ~1e300
    # overflows a conv stack, whose checks name the layer it entered
    overrides = ["synthetic_n=1000", "indicator_windows=7,14", "top_k=26",
                 "ae_epochs=8", "max_epochs=24", "patience=25", "seed=201",
                 f"{key}=1e300", f"out_dir={tmp_path / 'out'}"]
    assert main(["run-all", *overrides]) == 5
    assert capsys.readouterr().err == f"training diverged: {message}\n"


def test_cli_under_fitted_exit(tmp_path, capsys):
    # one epoch on noise-heavy settings cannot clear zeta=0.8
    overrides = list(_FAST) + ["max_epochs=1", f"out_dir={tmp_path / 'out'}"]
    assert main(["ingest", *overrides]) == 0
    assert main(["prepare", *overrides]) == 0
    code = main(["train", *overrides])
    captured = capsys.readouterr()
    verdict = json.loads(run_paths(build_config(None, overrides))
                         .train_json.read_text())
    if verdict["status"] == "under_fitted":
        assert code == 4
        assert "verdict" in captured.err
    else:
        assert code == 0
    # backtesting still works on the persisted model either way
    assert main(["backtest", *overrides]) == 0


def test_run_directory_holds_only_listed_files(tmp_path, capsys):
    csv = tmp_path / "prices.csv"
    overrides = list(_FAST) + [f"data={csv}", f"out_dir={tmp_path / 'out'}"]
    config = build_config(None, overrides)
    paths = run_paths(config)

    def on_disk():
        return sorted(p.name for p in paths.root.iterdir())

    # an error before prepare's first sub-step carries the stage name, and
    # so does report's; neither creates the run directory
    for command in ("prepare", "report"):
        assert main([command, *overrides]) == 3
        assert capsys.readouterr().err.startswith(f"data error: [{command}] no manifest at ")
        assert not paths.root.exists()
    save_csv(sine_market(n=450, seed=1), csv)
    assert main(["ingest", *overrides]) == 0
    assert main(["prepare", *overrides]) == 0
    # changed candles: the derived artifacts leave the manifest and the disk
    save_csv(sine_market(n=450, seed=2), csv)
    assert main(["ingest", *overrides]) == 0
    assert on_disk() == ["manifest.json", "market.csv"]
    # a failing prepare removes unlisted files, also ones it did not write
    (paths.root / "stale.bin").write_bytes(b"left by an older run")
    paths.market.write_text(paths.market.read_text() + "\n")
    capsys.readouterr()
    assert main(["prepare", *overrides]) == 3
    assert capsys.readouterr().err.startswith("data error: [prepare] refusing market.csv")
    assert on_disk() == ["manifest.json", "market.csv"]
    # without a readable manifest of this run nothing is removed
    (paths.root / "stale.bin").write_bytes(b"kept")
    for torn in ('{"run_id": "', '{"run_id": "0123456789ab", "files": {}}'):
        paths.manifest.write_text(torn)
        assert main(["prepare", *overrides]) == 3
        assert on_disk() == ["manifest.json", "market.csv", "stale.bin"]


@pytest.mark.parametrize("entry", ["manifest.json", "market.csv"])
def test_filesystem_failure_in_a_stage_is_an_artifact_error(tmp_path, capsys, entry):
    # a directory where ingest reads the manifest or replaces the candle file
    overrides = [*_FAST, f"out_dir={tmp_path / 'out'}"]
    paths = run_paths(build_config(None, overrides))
    (paths.root / entry).mkdir(parents=True)
    assert main(["ingest", *overrides]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: [ingest] ") and entry in err
    assert ".tmp" not in err
    assert (paths.root / entry).is_dir()


def test_torn_manifest_is_an_artifact_error(tmp_path, capsys):
    overrides = list(_FAST) + [f"out_dir={tmp_path / 'out'}"]
    assert main(["ingest", *overrides]) == 0
    paths = run_paths(build_config(None, overrides))
    paths.manifest.write_text('{"run_id": "')
    capsys.readouterr()
    assert main(["report", *overrides]) == 3
    assert "manifest" in capsys.readouterr().err
    paths.manifest.write_text("[]")
    assert main(["report", *overrides]) == 3


def test_reingesting_changed_candles_drops_derived_artifacts(tmp_path, capsys):
    csv = tmp_path / "prices.csv"
    overrides = list(_FAST) + [f"data={csv}", f"out_dir={tmp_path / 'out'}"]
    config = build_config(None, overrides)
    paths = run_paths(config)
    save_csv(sine_market(n=450, seed=1), csv)
    assert main(["ingest", *overrides]) == 0
    assert main(["prepare", *overrides]) == 0
    # the run id hashes the path, not the content, so it does not change
    save_csv(sine_market(n=450, seed=2), csv)
    assert main(["ingest", *overrides]) == 0
    assert sorted(Manifest.load(paths, config).files) == ["market.csv"]
    capsys.readouterr()
    assert main(["train", *overrides]) == 3
    assert "producing stage" in capsys.readouterr().err
    # same candles again: nothing is dropped
    assert main(["prepare", *overrides]) == 0
    before = paths.manifest.read_bytes()
    assert main(["ingest", *overrides]) == 0
    assert paths.manifest.read_bytes() == before


# artifacts fitted on the training split only
_FITTED = ("importance.csv", "prepare.json", "ae_price.ckpt", "ae_non_price.ckpt",
           "classifier.ckpt", "loss_history.csv", "train.json")


def _rewritten_from(series, cut):
    """``series`` with every candle from index ``cut`` on replaced by a
    different valid candle at the same timestamp."""
    close, volume = series.close.copy(), series.volume.copy()
    close[cut:] *= 1.0 + 0.05 * np.cos(np.arange(len(close) - cut))
    volume[cut:] *= 1.7
    open_ = series.open.copy()
    open_[cut:] = close[cut - 1:-1]
    high, low = series.high.copy(), series.low.copy()
    high[cut:] = np.maximum(open_, close)[cut:] * 1.002
    low[cut:] = np.minimum(open_, close)[cut:] * 0.998
    return CandleSeries(series.symbol, series.timeframe, series.timestamps,
                        open_, high, low, close, volume)


def _run_on(series, csv, *extra):
    """run-all on ``series`` written to ``csv``; returns the run's config,
    its root, the candle index of each held-out window end, and the
    held-out sigmas recomputed from the stored checkpoints."""
    save_csv(series, csv)
    config = build_config(None, _FAST + extra + (f"data={csv}",
                                                 f"out_dir={csv.parent / csv.stem}"))
    run_all(config)
    paths = run_paths(config)
    manifest = Manifest.load(paths, config)
    ds, groups = pipeline._encoded_groups(config, paths, manifest)
    model = pipeline._restored(pipeline._classifier_for(config, groups, seed=0),
                               manifest, paths.classifier)
    k = ds.n_train
    ends = np.searchsorted(series.timestamps, ds.index[k:])
    sigmas = predict_batch(model, *(g[k:] for g in groups))
    return config, paths.root, ends, sigmas


def _fitted_differs(a, b):
    return [name for name in _FITTED
            if (a / name).read_bytes() != (b / name).read_bytes()]


@pytest.mark.filterwarnings("ignore:global wavelet mode")
@pytest.mark.parametrize("market, extra", [
    (lambda: sine_market(n=450, seed=3), ()),
    (lambda: make_series(450, seed=5), ("timeframe=3600",)),
], ids=["sine", "random_walk"])
def test_run_all_has_no_look_ahead(tmp_path, market, extra):
    """Rewriting the held-out candles from a cut c on changes nothing that
    was fitted, and nothing the backtest decided before c."""
    series = market()
    _, base_root, ends, base_sigmas = _run_on(series, tmp_path / "base.csv", *extra)
    first = ends[0]
    cuts = [first + (len(series) - first) // 3, first + 2 * (len(series) - first) // 3]
    for cut in cuts:
        config, root, cut_ends, sigmas = _run_on(_rewritten_from(series, cut),
                                                 tmp_path / f"cut{cut}.csv", *extra)
        assert _fitted_differs(base_root, root) == [], cut
        np.testing.assert_array_equal(cut_ends, ends)
        before = ends < cut
        np.testing.assert_array_equal(sigmas[before], base_sigmas[before])
        assert not np.array_equal(sigmas[~before], base_sigmas[~before])
        compared = 0
        for i in range(len(config.theta_list)):
            name = f"ledger_theta{i}.csv"
            rows = [[r for r in read_ledger_csv(run / name) if ends[r.t] + 1 < cut]
                    for run in (base_root, root)]
            assert rows[0] == rows[1], (cut, name)
            compared += len(rows[0])
        assert compared > 0
    # teeth: with the whole series in view, the fitted artifacts move too
    _, base_root, _, _ = _run_on(series, tmp_path / "gbase.csv", *extra,
                                 "wavelet_mode=global")
    _, root, _, _ = _run_on(_rewritten_from(series, cuts[0]), tmp_path / "gcut.csv",
                            *extra, "wavelet_mode=global")
    assert _fitted_differs(base_root, root)
