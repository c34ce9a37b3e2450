"""End-to-end orchestration: config, seeded stages, and run artifacts.

A run is fully described by a flat key=value configuration (defaults below,
optionally layered with a config file and command-line overrides).  The
sha256 of the canonical config text names the run directory, so identical
settings always land in the same place and reruns must reproduce identical
bytes.  Every stage records the files it wrote in ``manifest.json`` with
content hashes; later stages refuse artifacts whose hash or run id no
longer matches.

Stage order: feature generation -> denoising -> feature selection ->
windowing -> channel split -> autoencoders (prepare), then classifier
training, then backtesting on the held-out tail.  Everything that fits
statistics or weights sees only the training split.
"""
from __future__ import annotations

import hashlib
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autoencoder import build_autoencoder, encode, train_autoencoder
from .classifier import build_classifier, predict_batch
from .dataset import (GROUPS, direction_labels, fit_norm_stats, load_windows,
                      make_windows, normalize, save_windows, split_channels)
from .denoise import WaveletConfig, denoise_features
from .errors import ArtifactError, CandlecastError, ConfigError, DataError
from .feature_select import (GbdtConfig, fit_gbdt, save_importance_csv,
                             select_top_k)
from .framing import read_json, write_json
from .indicators import default_grid, generate_features
from .market_data import load_csv, save_csv
from .nn import load_checkpoint, restore_parameters, save_checkpoint
from .strategy import (StrategyConfig, run_backtest, write_ledger_csv,
                       write_report_csv, write_report_json)
from .synthetic import sine_market
from .trainer import TrainConfig, train_classifier, write_history_csv

DEFAULTS = {
    # data source: a candle CSV path, or "synthetic" for the bundled
    # deterministic sine market
    "data": "synthetic",
    "timeframe": 14400,
    "fill_gaps": False,
    "symbol": "SINE/USD",
    "synthetic_n": 4000,
    "synthetic_period": 96.0,
    "synthetic_amplitude": 0.25,
    "synthetic_noise": 0.0012,
    "synthetic_base_price": 100.0,
    # feature generation
    "indicator_windows": (7, 14, 21, 35, 50),
    # denoising
    "wavelet_family": "db4",
    "wavelet_levels": 2,
    "wavelet_mode": "causal",
    # feature selection (top_k generated columns kept besides the raw five)
    "gbdt_rounds": 100,
    "gbdt_max_depth": 3,
    "gbdt_learning_rate": 0.1,
    "gbdt_min_samples_leaf": 20,
    "top_k": 25,
    # windowing
    "window": 24,
    "stride": 1,
    "train_fraction": 0.8,
    # autoencoders
    "ae_code_price": 4,
    "ae_code_non_price": 4,
    "ae_epochs": 200,
    "ae_learning_rate": 1e-3,
    "ae_batch_size": 64,
    # classifier
    "clf_hidden": 20,
    "clf_branch_channels": 8,
    "clf_dropout": 0.3,
    # trainer
    "zeta": 0.8,
    "patience": 10,
    "slope_threshold": -1e-4,
    "max_epochs": 2000,
    "learning_rate": 1e-3,
    "batch_size": 64,
    # strategy
    "theta_list": (1.0 / 3.0, 0.25, 1.0),
    "fee_rate": 0.001,
    "profit_saving": True,
    "initial_margin": 1000.0,
    # plumbing
    "seed": 7,
    "out_dir": "out",
}

_AE_GROUPS = GROUPS[1:]          # each has an autoencoder; the raw candles have none
# the spawn order fixes each stream's bits
_STREAM_NAMES = ("synthetic", *(f"ae_{g}" for g in _AE_GROUPS), "classifier", "trainer")


def parse_number(text: str) -> float:
    """Float literal or a fraction like ``1/3``."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            num_v, den_v = float(num), float(den)
        except ValueError:
            raise ConfigError(f"cannot parse fraction {text!r}") from None
        if den_v == 0.0:
            raise ConfigError(f"zero denominator in {text!r}")
        value = num_v / den_v
    else:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"number {text!r} is not finite")
    return value


def _parse_value(key: str, text: str):
    template = DEFAULTS[key]
    text = text.strip()
    if isinstance(template, bool):
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        raise ConfigError(f"{key}: expected true or false, got {text!r}")
    if isinstance(template, int):
        try:
            return int(text, 10)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    if isinstance(template, float):
        return parse_number(text)
    if isinstance(template, tuple):
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key}: needs at least one value")
        if isinstance(template[0], int):
            try:
                return tuple(int(p, 10) for p in parts)
            except ValueError:
                raise ConfigError(f"{key}: expected integers, got {text!r}") from None
        return tuple(parse_number(p) for p in parts)
    return text


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


class PipelineConfig:
    """Immutable bag of validated run settings with a canonical text form."""

    def __init__(self, values: dict | None = None):
        merged = dict(DEFAULTS)
        for key, value in (values or {}).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = value
        object.__setattr__(self, "_values", merged)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("configuration is immutable; build a new one")

    def __getattr__(self, name):
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def _validate(self) -> None:
        v = self._values
        for key in ("timeframe", "window", "stride", "top_k", "synthetic_period",
                    "synthetic_base_price", "ae_code_price", "ae_code_non_price",
                    "ae_epochs", "ae_learning_rate", "ae_batch_size",
                    "clf_hidden", "clf_branch_channels"):
            if v[key] <= 0:
                raise ConfigError(f"{key} must be positive, got {v[key]}")
        for key in ("synthetic_noise", "seed"):
            if v[key] < 0:
                raise ConfigError(f"{key} must not be negative, got {v[key]}")
        if v["synthetic_n"] < 2:
            raise ConfigError(f"synthetic_n must be at least 2, got {v['synthetic_n']}")
        if not -1.0 < v["synthetic_amplitude"] < 1.0:
            # at |amplitude| >= 1 the noiseless trend reaches zero or below
            raise ConfigError(f"synthetic_amplitude must be in (-1, 1), "
                              f"got {v['synthetic_amplitude']}")
        if v["window"] % 6:
            raise ConfigError(f"window must be even (autoencoder pooling) and divisible "
                              f"by 3 (classifier pooling), got {v['window']}")
        windows = v["indicator_windows"]
        if not windows or min(windows) < 2 or len(set(windows)) != len(windows):
            raise ConfigError(f"indicator_windows must be distinct and at least 2, "
                              f"got {_format_value(windows)}")
        if not 0.0 < v["train_fraction"] < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {v['train_fraction']}")
        if not 0.0 <= v["clf_dropout"] < 1.0:
            raise ConfigError(f"clf_dropout must be in [0, 1), got {v['clf_dropout']}")
        if not v["theta_list"]:
            raise ConfigError("theta_list needs at least one value")
        # sub-configurations enforce their own invariants; building them
        # here surfaces bad values at parse time rather than mid-run
        self.wavelet_config()
        self.gbdt_config()
        self.train_config()
        for theta in v["theta_list"]:
            self.strategy_config(theta)

    def canonical(self) -> str:
        # out_dir is plumbing: where artifacts land must not change what
        # the run computes, so it stays out of the identity hash
        return "\n".join(f"{k}={_format_value(self._values[k])}"
                         for k in sorted(self._values) if k != "out_dir") + "\n"

    @property
    def run_id(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]

    def with_overrides(self, overrides: dict) -> "PipelineConfig":
        merged = dict(self._values)
        merged.update(overrides)
        return PipelineConfig(merged)

    def wavelet_config(self) -> WaveletConfig:
        return WaveletConfig(self.wavelet_family, self.wavelet_levels, self.wavelet_mode)

    def gbdt_config(self) -> GbdtConfig:
        return GbdtConfig(rounds=self.gbdt_rounds, max_depth=self.gbdt_max_depth,
                          learning_rate=self.gbdt_learning_rate,
                          min_samples_leaf=self.gbdt_min_samples_leaf,
                          top_k=self.top_k)

    def train_config(self) -> TrainConfig:
        return TrainConfig(zeta=self.zeta, patience=self.patience,
                           slope_threshold=self.slope_threshold,
                           max_epochs=self.max_epochs,
                           learning_rate=self.learning_rate,
                           batch_size=self.batch_size)

    def strategy_config(self, theta: float) -> StrategyConfig:
        return StrategyConfig(theta=theta, fee_rate=self.fee_rate,
                              profit_saving=self.profit_saving,
                              initial_margin=self.initial_margin)


def _setting(pair: str, where: str) -> tuple:
    """One ``key=value`` setting as (key, parsed value); ``where`` prefixes
    the errors."""
    key, eq, text = pair.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}expected key=value, got {pair!r}")
    if key not in DEFAULTS:
        raise ConfigError(f"{where}unknown key {key!r}")
    try:
        return key, _parse_value(key, text)
    except ConfigError as exc:
        raise ConfigError(f"{where}{exc}") from None


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _setting(line, f"{path} line {lineno}: ")
            out[key] = value
    return out


def parse_overrides(pairs) -> dict:
    return dict(_setting(pair, "override: ") for pair in pairs)


def build_config(config_path=None, overrides=()) -> PipelineConfig:
    values = load_config_file(config_path) if config_path else {}
    values.update(parse_overrides(overrides))
    return PipelineConfig(values)


def seed_streams(seed: int) -> dict:
    """Independent named child sequences of the master seed, fixed order."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_NAMES))
    return dict(zip(_STREAM_NAMES, children))


@contextmanager
def _stage(name: str):
    """Prefix a CandlecastError raised in the block with ``[name]``, unless
    an inner stage already named it; a filesystem failure (OSError) is
    raised as such an ArtifactError."""
    try:
        yield
    except OSError as exc:
        error = ArtifactError(f"[{name}] file system error: {exc}")
        error.stage = name
        raise error from exc
    except CandlecastError as exc:
        if getattr(exc, "stage", None) is None:
            message = exc.args[0] if exc.args else str(exc)
            exc.args = (f"[{name}] {message}",) + exc.args[1:]
            exc.stage = name
        raise


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunPaths:
    root: Path

    @property
    def manifest(self) -> Path: return self.root / "manifest.json"
    @property
    def market(self) -> Path: return self.root / "market.csv"
    @property
    def importance(self) -> Path: return self.root / "importance.csv"
    @property
    def dataset(self) -> Path: return self.root / "dataset.bin"
    @property
    def prepare_json(self) -> Path: return self.root / "prepare.json"
    @property
    def classifier(self) -> Path: return self.root / "classifier.ckpt"
    @property
    def history(self) -> Path: return self.root / "loss_history.csv"
    @property
    def train_json(self) -> Path: return self.root / "train.json"
    @property
    def backtest_json(self) -> Path: return self.root / "backtest.json"

    def autoencoder(self, group: str) -> Path: return self.root / f"ae_{group}.ckpt"
    def report_json(self, i: int) -> Path: return self.root / f"report_theta{i}.json"
    def report_csv(self, i: int) -> Path: return self.root / f"report_theta{i}.csv"
    def ledger_csv(self, i: int) -> Path: return self.root / f"ledger_theta{i}.csv"


def run_paths(config: PipelineConfig) -> RunPaths:
    return RunPaths(Path(config.out_dir) / config.run_id)


class Manifest:
    """Content-hash registry for one run directory."""

    def __init__(self, paths: RunPaths, run_id: str, files: dict | None = None):
        self.paths = paths
        self.run_id = run_id
        self.files = dict(files or {})

    @classmethod
    def load(cls, paths: RunPaths, config: PipelineConfig) -> "Manifest":
        if not paths.manifest.exists():
            raise ArtifactError(f"no manifest at {paths.manifest}; run earlier stages first")
        payload = read_json(paths.manifest, "manifest")
        if payload.get("run_id") != config.run_id:
            raise ArtifactError(
                f"artifacts in {paths.root} were produced by a different "
                f"configuration (run id {payload.get('run_id')} != {config.run_id})")
        return cls(paths, config.run_id, payload.get("files", {}))

    @classmethod
    def create(cls, paths: RunPaths, config: PipelineConfig) -> "Manifest":
        try:
            paths.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ArtifactError(f"cannot create the run directory {paths.root}: "
                                f"{exc.strerror}") from exc
        if paths.manifest.exists():
            return cls.load(paths, config)
        manifest = cls(paths, config.run_id)
        manifest.save(config)
        return manifest

    def save(self, config: PipelineConfig) -> None:
        write_json(self.paths.manifest, {"run_id": self.run_id, "config": config.canonical(),
                                         "files": self.files})

    def add(self, *paths: Path) -> None:
        for path in paths:
            self.files[path.name] = _sha256(path)

    def verify(self, path: Path) -> Path:
        recorded = self.files.get(path.name)
        if recorded is None:
            raise ArtifactError(f"{path.name} is not part of this run; "
                                "run the producing stage first")
        if not path.exists():
            raise ArtifactError(f"missing artifact {path}")
        actual = _sha256(path)
        if actual != recorded:
            raise ArtifactError(f"refusing {path.name}: content hash {actual[:12]} "
                                f"does not match the recorded {recorded[:12]}")
        return path

    def verified_json(self, path: Path) -> dict:
        """A JSON artifact of this run, hash-verified, then parsed."""
        return read_json(self.verify(path), path.name)


def _remove_unlisted(paths: RunPaths, config: PipelineConfig) -> None:
    """Delete every file in the run directory that its saved manifest does
    not list; without a readable manifest of this run nothing is removed."""
    try:
        listed = set(Manifest.load(paths, config).files)
    except (ArtifactError, OSError):
        return
    listed.add(paths.manifest.name)
    for path in paths.root.iterdir():
        if path.is_file() and path.name not in listed:
            path.unlink(missing_ok=True)


@contextmanager
def _open_run(config: PipelineConfig, name: str, create: bool = False):
    """One stage's hold on its run directory, yielding (paths, manifest).

    Opens the manifest (``create`` makes the directory, for ingest), runs
    the block as stage ``name``, saves the manifest when the block
    completes, and then, completed or failed, removes every file that the
    saved manifest does not list."""
    paths = run_paths(config)
    try:
        with _stage(name):
            manifest = (Manifest.create if create else Manifest.load)(paths, config)
            yield paths, manifest
            manifest.save(config)
    finally:
        _remove_unlisted(paths, config)


def stage_ingest(config: PipelineConfig) -> RunPaths:
    """Materialize the canonical candle file for this run."""
    with _open_run(config, "ingest", create=True) as (paths, manifest):
        if config.data == "synthetic":
            child = seed_streams(config.seed)["synthetic"]
            series = sine_market(n=config.synthetic_n, timeframe=config.timeframe,
                                 period=config.synthetic_period,
                                 amplitude=config.synthetic_amplitude,
                                 noise=config.synthetic_noise,
                                 base_price=config.synthetic_base_price,
                                 seed=int(child.generate_state(1)[0]),
                                 symbol=config.symbol)
        else:
            source = Path(config.data)
            if not source.exists():
                raise DataError(f"data file not found: {source}")
            series = load_csv(source, timeframe=config.timeframe,
                              symbol=config.symbol, fill_gaps=config.fill_gaps)
        save_csv(series, paths.market)
        previous = manifest.files.get(paths.market.name)
        manifest.add(paths.market)
        current = manifest.files[paths.market.name]
        if previous is not None and previous != current:
            # new candles: every other artifact was derived from the old ones
            manifest.files = {paths.market.name: current}
    return paths


def stage_prepare(config: PipelineConfig) -> RunPaths:
    """Feature generation through autoencoder training, artifacts on disk."""
    with _open_run(config, "prepare") as (paths, manifest):
        manifest.verify(paths.market)
        series = load_csv(paths.market, timeframe=config.timeframe, symbol=config.symbol)
        streams = seed_streams(config.seed)

        with _stage("prepare:features"):
            table = generate_features(series, default_grid(config.indicator_windows))
            # the table dropped the warm-up prefix; keep closes aligned with it
            closes = series.close[len(series) - len(table):]
        with _stage("prepare:denoise"):
            table = denoise_features(table, config.wavelet_config())
        with _stage("prepare:select"):
            rows = len(table)
            train_rows = int(rows * config.train_fraction)
            if train_rows < config.window + 2 or train_rows > rows - 1:
                raise DataError(f"training split of {train_rows} rows (of {rows}) "
                                "cannot support windowing; adjust train_fraction "
                                "or supply more candles")
            labels = direction_labels(closes[:train_rows])
            gbdt = fit_gbdt(table.values[:train_rows - 1], labels,
                            config.gbdt_config(), feature_names=table.names)
            save_importance_csv(paths.importance, gbdt)
            table = select_top_k(table, gbdt, config.top_k)
        with _stage("prepare:windows"):
            ds = make_windows(table, closes, config.window, config.stride)
            ds.set_train_boundary(train_rows)
            if ds.n_train < 1 or ds.n_train >= len(ds):
                raise DataError(f"split leaves {ds.n_train} training instances "
                                f"of {len(ds)}; adjust train_fraction")
            ds = normalize(ds, fit_norm_stats(ds))
            save_windows(ds, paths.dataset)
        with _stage("prepare:channels"):
            groups = split_channels(ds)
        with _stage("prepare:autoencoders"):
            summary = {}
            for label, batch in zip(_AE_GROUPS, groups[1:]):
                requested = getattr(config, f"ae_code_{label}")
                channels = batch.shape[1]
                code = min(requested, channels - 1) if channels > 1 else requested
                if code != requested:
                    warnings.warn(f"{label} group has {channels} channels; "
                                  f"code size clamped from {requested} to {code}")
                rng = np.random.default_rng(streams[f"ae_{label}"])
                model = build_autoencoder(channels, code, config.window,
                                          seed=rng, name=f"ae_{label}")
                train_autoencoder(model, batch[:ds.n_train],
                                  epochs=config.ae_epochs,
                                  lr=config.ae_learning_rate,
                                  batch_size=config.ae_batch_size, seed=rng)
                save_checkpoint(model.parameters(), paths.autoencoder(label))
                summary[label] = {"in_channels": channels, "code_channels": code,
                                  "epochs": len(model.loss_history),
                                  "final_loss": float(model.loss_history[-1])}
        payload = {
            "ae": summary,
            "channels": list(ds.channel_names),
            "classes": [c.value for c in ds.channel_classes],
            "groups": {g: int(batch.shape[1]) for g, batch in zip(GROUPS, groups)},
            "instances": len(ds), "n_train": int(ds.n_train),
            "rows": rows, "train_rows": train_rows,
            "window": config.window, "stride": config.stride,
        }
        write_json(paths.prepare_json, payload)
        manifest.add(paths.importance, paths.dataset,
                     *map(paths.autoencoder, _AE_GROUPS), paths.prepare_json)
    return paths


def _restored(model, manifest: Manifest, path: Path):
    """``model`` with its hash-verified checkpoint loaded, marked trained."""
    restore_parameters(model.parameters(), load_checkpoint(manifest.verify(path)))
    model.trained = True
    return model


def _encoded_groups(config: PipelineConfig, paths: RunPaths, manifest: Manifest):
    """The prepared windows and the classifier's three inputs: the raw-candle
    group, then every other group encoded by its stored autoencoder."""
    ds = load_windows(manifest.verify(paths.dataset))
    info = manifest.verified_json(paths.prepare_json)
    ohlcv, *coded = split_channels(ds)
    codes = []
    for label, batch in zip(_AE_GROUPS, coded):
        ae = build_autoencoder(info["ae"][label]["in_channels"],
                               info["ae"][label]["code_channels"],
                               config.window, seed=0, name=f"ae_{label}")
        codes.append(encode(_restored(ae, manifest, paths.autoencoder(label)), batch))
    return ds, (ohlcv, *codes)


def _classifier_for(config: PipelineConfig, groups, seed):
    """The configured classifier, sized to the three encoded groups."""
    return build_classifier(*(g.shape[1] for g in groups), config.window, seed=seed,
                            hidden_size=config.clf_hidden,
                            branch_channels=config.clf_branch_channels,
                            dropout_rate=config.clf_dropout)


def stage_train(config: PipelineConfig) -> tuple:
    """Fit the classifier on the training instances; persist the verdict."""
    with _open_run(config, "train") as (paths, manifest):
        ds, groups = _encoded_groups(config, paths, manifest)
        n_train = ds.n_train
        streams = seed_streams(config.seed)
        model = _classifier_for(config, groups, np.random.default_rng(streams["classifier"]))
        report = train_classifier(model, *(g[:n_train] for g in groups), ds.y[:n_train],
                                  config.train_config(),
                                  seed=np.random.default_rng(streams["trainer"]))
        save_checkpoint(model.parameters(), paths.classifier)
        write_history_csv(report.history, paths.history)
        write_json(paths.train_json, {"status": report.status, "sigma_star": report.sigma_star,
                                      "loss_e": report.loss_e, "loss_10": report.loss_10,
                                      "epochs_run": report.epochs_run,
                                      "converged": report.converged, "zeta": config.zeta})
        manifest.add(paths.classifier, paths.history, paths.train_json)
    return paths, report


def _refuse_backtest_stride(config: PipelineConfig) -> None:
    """A backtest trades every held-out candle, so it needs stride 1."""
    if config.stride != 1:
        raise ConfigError(f"stride must be 1 to backtest (held-out instances must be "
                          f"consecutive candles), got {config.stride}")


def stage_backtest(config: PipelineConfig) -> tuple:
    """Score the held-out tail for every theta in the list."""
    _refuse_backtest_stride(config)
    with _open_run(config, "backtest") as (paths, manifest):
        verdict = manifest.verified_json(paths.train_json)
        ds, groups = _encoded_groups(config, paths, manifest)
        model = _restored(_classifier_for(config, groups, seed=0), manifest,
                          paths.classifier)

        n_train = ds.n_train
        if n_train >= len(ds):
            raise DataError("no held-out instances to backtest")
        close_t = ds.close_t[n_train:]
        close_next = ds.close_next[n_train:]
        if not np.array_equal(close_t[1:], close_next[:-1]):
            raise DataError("held-out instances are not consecutive candles; "
                            "backtesting needs stride=1")
        closes = np.append(close_t, close_next[-1])
        if config.wavelet_mode == "global":
            warnings.warn("global wavelet mode denoises with the full series "
                          "in view; backtest results include look-ahead and "
                          "overstate live performance")
        sigmas = predict_batch(model, *(g[n_train:] for g in groups))
        labels = ds.y[n_train:]
        extra = {"sigma_star": verdict["sigma_star"],
                 "converged_loss_10": verdict["loss_10"],
                 "verdict": verdict["status"],
                 "test_instances": int(len(ds) - n_train)}
        runs = []
        reports = []
        for i, theta in enumerate(config.theta_list):
            report = run_backtest(sigmas, closes, labels, config.strategy_config(theta))
            write_report_json(report, paths.report_json(i), extra=extra)
            write_report_csv(report, paths.report_csv(i), extra=extra)
            write_ledger_csv(report.ledger, paths.ledger_csv(i))
            runs.append({"theta": theta, "trades": report.trades,
                         "accuracy": report.accuracy,
                         "pnl_compounding": report.pnl_compounding,
                         "pnl_profit_saving": report.pnl_profit_saving,
                         "report_json": paths.report_json(i).name,
                         "report_csv": paths.report_csv(i).name,
                         "ledger_csv": paths.ledger_csv(i).name})
            reports.append(report)
            manifest.add(paths.report_json(i), paths.report_csv(i), paths.ledger_csv(i))
        write_json(paths.backtest_json, {"runs": runs, "verdict": verdict["status"]})
        manifest.add(paths.backtest_json)
    return paths, reports


def run_all(config: PipelineConfig) -> tuple:
    """ingest -> prepare -> train -> backtest; returns (paths, train report,
    backtest reports)."""
    _refuse_backtest_stride(config)
    stage_ingest(config)
    stage_prepare(config)
    _, train_report = stage_train(config)
    _, reports = stage_backtest(config)
    return run_paths(config), train_report, reports


def report_text(config: PipelineConfig) -> str:
    """Human-readable summary of a finished run."""
    paths = run_paths(config)
    # not _open_run: a report reads the run directory and changes nothing in it
    with _stage("report"):
        manifest = Manifest.load(paths, config)
        verdict = manifest.verified_json(paths.train_json)
        lines = [f"run {config.run_id} at {paths.root}",
                 f"verdict: {verdict['status']} "
                 f"(sigma*={verdict['sigma_star']:.4f}, zeta={verdict['zeta']}, "
                 f"epochs={verdict['epochs_run']})"]
        if paths.backtest_json.name in manifest.files:
            summary = manifest.verified_json(paths.backtest_json)
            lines.append("theta    trades  accuracy  pnl_saving%  pnl_compound%")
            for run in summary["runs"]:
                lines.append(f"{run['theta']:<8.4g}{run['trades']:>6}  "
                             f"{run['accuracy']:>8.4f}  {run['pnl_profit_saving']:>11.4f}  "
                             f"{run['pnl_compounding']:>13.4f}")
        else:
            lines.append("no backtest artifacts yet")
    return "\n".join(lines)
